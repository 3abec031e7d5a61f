(* Tests of the benchmark's own logic: the percentile rule and the
   seeded workload generators. *)

module P = Serve.Protocol
module Spec = Comdiac.Spec

let check name ok =
  if not ok then begin
    prerr_endline ("FAIL: " ^ name);
    exit 1
  end

let quantile_rule () =
  let open Perfbench.Stats in
  (* at least ten samples strictly beyond the reported percentile *)
  check "19 samples: nothing reportable" (highest_reportable 19 = None);
  check "20 samples: median" (highest_reportable 20 = Some 500);
  check "99 samples: still the median" (highest_reportable 99 = Some 500);
  check "100 samples: p90" (highest_reportable 100 = Some 900);
  check "10000 samples: still p90" (highest_reportable 10000 = Some 900);
  check "beyond p90 of 100" (beyond ~n:100 900 = 10);
  check "beyond p50 of 21" (beyond ~n:21 500 = 10);
  check "beyond p99 of 999" (beyond ~n:999 990 = 9);
  check "beyond p99 of 1000" (beyond ~n:1000 990 = 10);
  check "median of odd list" (median [ 3.; 1.; 2. ] = 2.);
  check "median interpolates" (median [ 4.; 1.; 2.; 3. ] = 2.5);
  check "p90 interpolates" (Float.abs (quantile (List.init 11 float_of_int) 0.9 -. 9.) < 1e-12)

let specs_of_seed seed = Perfbench.Gen.synth_specs ~seed ~n:20

let generators () =
  let open Perfbench.Gen in
  check "same seed, same specs" (specs_of_seed 7 = specs_of_seed 7);
  check "different seed, different specs" (specs_of_seed 7 <> specs_of_seed 8);
  check "same seed, same optimize seeds" (opt_seeds ~seed:3 ~n:9 = opt_seeds ~seed:3 ~n:9);
  check "different seed, different optimize seeds"
    (opt_seeds ~seed:3 ~n:9 <> opt_seeds ~seed:4 ~n:9);
  check "optimize seeds are distinct"
    (List.length (List.sort_uniq compare (opt_seeds ~seed:5 ~n:50)) = 50);
  let serve seed =
    List.map (List.map P.request_to_json) (serve_requests ~seed ~blocks:2 ~connections:2)
  in
  check "same seed, same served requests" (serve 11 = serve 11);
  check "different seed, different served requests" (serve 11 <> serve 12);
  let lists = serve_requests ~seed:11 ~blocks:3 ~connections:2 in
  check "served block size"
    (List.for_all (fun l -> List.length l = 3 * block_size) lists);
  List.iter
    (fun seed ->
      let served =
        List.concat_map (List.map (fun r -> r.P.spec))
          (serve_requests ~seed ~blocks:2 ~connections:2)
      in
      List.iter
        (fun spec ->
          check (Printf.sprintf "seed %d: spec validates" seed) (Spec.validate spec = Ok ());
          let lo, hi = gbw_range in
          check "gbw in range" (spec.Spec.gbw = Spec.paper_ota.Spec.gbw
                                || (spec.Spec.gbw >= lo && spec.Spec.gbw <= hi)))
        (specs_of_seed seed @ served))
    [ 1; 2; 3; 42; 1000 ];
  (* stratified: every tenth of the pool, ordered by GBW x CL, holds
     exactly two of 20 specs *)
  let pool = List.sort compare (List.map load_product (Array.to_list vetted)) in
  let m = List.length pool in
  let rank spec =
    let p = spec.Spec.gbw /. 1e4 *. (spec.Spec.cload /. 1e-15) in
    List.length (List.filter (fun q -> float_of_int q < p -. 0.5) pool)
  in
  let counts = Array.make 10 0 in
  List.iter
    (fun s -> let k = rank s * 10 / m in counts.(k) <- counts.(k) + 1)
    (specs_of_seed 9);
  check "load strata evenly used" (Array.for_all (fun c -> c = 2) counts)

let () =
  quantile_rule ();
  generators ();
  print_endline "perfbench tests: ok"
