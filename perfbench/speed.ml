(* Host-speed reference.

   The machines this benchmark runs on share their cores with other
   tenants: a core's speed changes by up to a factor of two, in spells
   of tens of seconds, which is as long as a run.  No number of samples
   inside a run averages that out, so every timing is taken between two
   runs of a fixed reference kernel and scaled to the kernel's nominal
   speed: a time [t] measured while the kernel took [k] seconds is
   reported as [t *. nominal_s /. k].

   The kernel is the benchmark's own code, so no change to the program
   can move it: a dense LU factorisation, hash-table updates and a burst
   of list allocation, the mix of float work, memory traffic and garbage
   collection the program's solvers do.  It runs in a fresh child
   process ([--speed-kernel]), so the program's heap cannot slow it
   down either.  A workload that keeps two cores busy is scaled by the
   kernel run in two domains at once: a tenant that takes one core
   slows such a workload more than a single-threaded kernel shows. *)

let kernel () =
  let n = 60 in
  let acc = ref 0.0 in
  for rep = 1 to 6 do
    let a =
      Array.init n (fun i ->
        Array.init n (fun j ->
          if i = j then float_of_int n else 1.0 /. float_of_int (1 + i + j + rep)))
    in
    for k = 0 to n - 1 do
      for i = k + 1 to n - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        for j = k to n - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
        done
      done
    done;
    acc := !acc +. a.(n - 1).(n - 1)
  done;
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace tbl (i land 4095) (float_of_int i, [ i ])
  done;
  let l = List.init 60_000 (fun i -> (float_of_int i, string_of_int i)) in
  List.fold_left
    (fun s (f, str) -> s +. f +. float_of_int (String.length str))
    (!acc +. float_of_int (Hashtbl.length tbl))
    (List.rev l)

let reps = 3

let child_flag = "--speed-kernel"

(* Entry point of the child, [exe --speed-kernel DOMAINS]: runs the
   kernel in DOMAINS domains at once and prints seconds per run. *)
let child_main () =
  let domains = int_of_string Sys.argv.(2) in
  let run () =
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (kernel ()))
    done
  in
  let t0 = Obs.Clock.monotonic_s () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn run) in
  run ();
  List.iter Domain.join others;
  Printf.printf "%.9f\n" ((Obs.Clock.monotonic_s () -. t0) /. float_of_int reps);
  exit 0

(* Seconds per kernel run in [domains] domains, measured now in a child
   process. *)
let measure ~domains =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; child_flag; string_of_int domains |] in
  let k = float_of_string (input_line ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> k
  | _ -> failwith "speed kernel failed"

(* Seconds per kernel run on the machine the benchmark was defined on
   (2 vCPUs at 2.0 GHz), near the middle of its range. *)
let nominal_s = 30e-3

(* Scale factor for a time measured between two kernel measurements. *)
let factor k_before k_after = nominal_s /. ((k_before +. k_after) /. 2.0)
