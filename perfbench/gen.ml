(* Seeded workload generators.  The benchmark owns its random stream
   (SplitMix64, written out here) so that its inputs never move when the
   program's own generators change: the same workload seed gives the
   same request list on every commit. *)

module P = Serve.Protocol
module Spec = Comdiac.Spec

type rng = { mutable state : int64 }

let rng ~seed ~stream =
  {
    state =
      Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L)
               (mul (of_int (stream + 1)) 0xD1B54A32D192ED03L));
  }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let float r = Int64.(to_float (shift_right_logical (next r) 11)) *. 0x1.0p-53
let int r n = min (n - 1) (int_of_float (float r *. float_of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- specs ------------------------------------------------------------ *)

type point = Spec_point.t = { gbw_10khz : int; pm_cdeg : int; cl_ff : int }

let gbw_range = (45e6, 85e6)
let pm_range = (60.0, 70.0)
let cload_range = (2e-12, 4e-12)

let spec_of_point p =
  {
    Spec.paper_ota with
    Spec.gbw = float_of_int p.gbw_10khz *. 1e4;
    phase_margin = float_of_int p.pm_cdeg /. 100.0;
    cload = float_of_int p.cl_ff *. 1e-15;
  }

let lerp (lo, hi) u = lo +. ((hi -. lo) *. u)

let point_of_unit ug up uc =
  {
    gbw_10khz = int_of_float (Float.round (lerp gbw_range ug /. 1e4));
    pm_cdeg = int_of_float (Float.round (lerp pm_range up *. 100.0));
    cl_ff = int_of_float (Float.round (lerp cload_range uc /. 1e-15));
  }

(* The candidate specs: a Latin-hypercube sample of the spec ranges
   (every axis cut into [candidate_count] strata, each used once) from a
   fixed seed.  [vet.exe] runs every workload kind on each of them;
   those on which every kind succeeds are [Spec_pool.vetted]. *)
let candidate_count = 160

let candidates () =
  let n = candidate_count in
  let r = rng ~seed:2000 ~stream:0 in
  let perm () =
    let a = Array.init n Fun.id in
    shuffle r a;
    a
  in
  let pg = perm () and pp = perm () and pc = perm () in
  let u k = (float_of_int k +. float r) /. float_of_int n in
  List.init n (fun i -> point_of_unit (u pg.(i)) (u pp.(i)) (u pc.(i)))

let vetted = Array.of_list Spec_pool.vetted

(* The load current a spec asks for grows with GBW x CL: it sets the
   design's power and much of the work of sizing and verifying it. *)
let load_product p = p.gbw_10khz * p.cl_ff

(* [n] vetted specs, stratified on [load_product]: the pool sorted by it
   is cut into [n] strata and one spec is drawn from each, so any seed
   covers the whole range evenly and medians over the list move little
   from seed to seed. *)
let synth_specs ~seed ~n =
  let r = rng ~seed ~stream:1 in
  let pool = Array.copy vetted in
  Array.sort (fun a b -> compare (load_product a) (load_product b)) pool;
  let m = Array.length pool in
  let picks =
    Array.init n (fun k ->
      let lo = k * m / n and hi = max ((k + 1) * m / n) ((k * m / n) + 1) in
      pool.(min (m - 1) (lo + int r (hi - lo))))
  in
  shuffle r picks;
  List.map spec_of_point (Array.to_list picks)

let synth_requests ~seed ~n =
  List.mapi
    (fun id spec -> P.request ~id ~spec ~jobs:1 (P.Synth { case = Core.Flow.Case4 }))
    (synth_specs ~seed ~n)

(* --- optimize ---------------------------------------------------------- *)

let opt_seeds ~seed ~n =
  let r = rng ~seed ~stream:2 in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let s = 1 + int r 999_999_999 in
      if List.mem s acc then draw acc k else draw (s :: acc) (k - 1)
  in
  draw [] n

let optimize_workload =
  P.Optimize { starts = 6; budget = 480; strategy = "nm"; lut = true }

let optimize_requests ~seed ~n =
  List.mapi
    (fun id s -> P.request ~id ~jobs:2 ~seed:s optimize_workload)
    (opt_seeds ~seed ~n)

(* --- serve_mixed --------------------------------------------------------- *)

(* One block of one connection's traffic.  The counts are fixed, only
   the specs, seeds and order are drawn, so the share of cache hits is
   the same for every seed.  Each synth/size pool entry belongs to one
   connection and one block, and the requests of a connection run one
   at a time, so the first request for an entry misses the memo caches
   and every repeat hits them, whatever the interleaving of the two
   connections. *)
type mix = {
  ping : int;
  stats : int;
  synth_pool : int;  (** distinct (spec, case) entries *)
  synth_uses : int;  (** requests per entry: 1 miss, then hits *)
  size_pool : int;
  size_uses : int;
  verify : int;  (** always distinct: small Monte Carlo + corners *)
  optimize : int;  (** always distinct: small-budget search *)
}

(* Sorted by latency one block of one connection reads: pings and
   stats (5), size hits (3), synth hits (9), verifies (2), a size miss
   (1), then synth misses and searches (5), all far apart.  The median
   (rank 12.5 of 25) falls in the middle of the synth hits and the 90th
   percentile (rank 22.5) in the middle of the slow misses, so neither
   sits on the boundary between cache hits and misses. *)
let mix =
  {
    ping = 4;
    stats = 1;
    synth_pool = 3;
    synth_uses = 4;
    size_pool = 1;
    size_uses = 4;
    verify = 2;
    optimize = 2;
  }

(* Requests in one block of one connection. *)
let block_size =
  mix.ping + mix.stats + (mix.synth_pool * mix.synth_uses)
  + (mix.size_pool * mix.size_uses) + mix.verify + mix.optimize

let verify_samples = 8
let serve_optimize = P.Optimize { starts = 2; budget = 60; strategy = "nm"; lut = true }

(* Specs of connection [c]: its own share of the vetted pool, drawn
   without replacement (reshuffled only if a very long run exhausts
   it), so no two pool entries share a spec. *)
let spec_supply r ~connection ~connections =
  let mine =
    Array.of_list
      (List.filteri (fun i _ -> i mod connections = connection)
         (Array.to_list vetted))
  in
  let next = ref (Array.length mine) in
  fun () ->
    if !next >= Array.length mine then begin
      shuffle r mine;
      next := 0
    end;
    incr next;
    spec_of_point mine.(!next - 1)

(* Synth pool entries take the flow cases in turn, so every seed sends
   the same mix of cases. *)
let connection_block r fresh_spec next_case =
  let m = mix in
  let workloads =
    List.concat
      [
        List.init m.ping (fun _ -> (P.Ping, None, None));
        List.init m.stats (fun _ -> (P.Stats, None, None));
        List.concat
          (List.init m.synth_pool (fun _ ->
             let spec = fresh_spec () in
             let case = next_case () in
             List.init m.synth_uses (fun _ ->
               (P.Synth { case }, Some spec, None))));
        List.concat
          (List.init m.size_pool (fun _ ->
             let spec = fresh_spec () in
             List.init m.size_uses (fun _ ->
               (P.Size { topology = "folded-cascode" }, Some spec, None))));
        List.init m.verify (fun _ ->
          (P.Verify { samples = verify_samples; seed = 1 + int r 999_999 },
           None, None));
        List.init m.optimize (fun _ ->
          (serve_optimize, None, Some (1 + int r 999_999_999)));
      ]
  in
  let a = Array.of_list workloads in
  shuffle r a;
  Array.to_list a

(* [connections] request lists, each [blocks] blocks long; request ids
   are unique within a connection. *)
let serve_requests ~seed ~blocks ~connections =
  List.init connections (fun c ->
    let r = rng ~seed ~stream:(100 + c) in
    let fresh_spec = spec_supply r ~connection:c ~connections in
    let entries = ref c in
    let next_case () =
      incr entries;
      List.nth Core.Flow.all_cases (!entries mod 4)
    in
    List.concat
      (List.init blocks (fun _ -> connection_block r fresh_spec next_case))
    |> List.mapi (fun id (w, spec, s) ->
      P.request ~id ?spec ?seed:s ~jobs:1 w))
