(* The losac benchmark driver: one process, linked against the
   libraries.  Every operation is a losac.job/1 request; in-process
   workloads run it through [Serve.Api.execute] (the dispatcher the
   CLI's JSON mode and the daemon share), [serve_mixed] sends it over a
   socket to a [losac serve] daemon.

     driver.exe --workload W --seed N --seconds S --trace 0|1 --losac PATH

   prints a manifest line and, last, one JSON result line.  See
   README.md for the workloads and the metric map. *)

open Perfbench
module P = Serve.Protocol
module Api = Serve.Api
module J = Obs.Json
module FC = Comdiac.Folded_cascode
module TB = Comdiac.Testbench
module Spec = Comdiac.Spec

external maxrss_kb : int -> int = "perfbench_maxrss_kb"

let now = Obs.Clock.monotonic_s

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Process CPU time, all threads and domains: a process that the host
   deschedules for a while does not accrue it, so on a shared host it
   compares two executions of the same work more steadily than wall
   time. *)
let cpu_timed f =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  let v = f () in
  (v, cpu () -. c0)

let sum = List.fold_left ( +. ) 0.0
let proc = Technology.Process.find "c06"
let kind = Device.Model.Bsim_lite
let runtime_dir = "_perfbench"

(* --- arguments ---------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let losac = ref "_build/default/bin/losac.exe"
let commit = ref "unknown"
let source_digest = ref "unknown"
let probe = ref ""

let workloads = [ "synth_sweep"; "optimize"; "serve_mixed" ]

(* --- tally and output ----------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: counts as attempted, and as failed unless [ok]. *)
let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("perfbench: check failed: " ^ what)
  end;
  ok

type metric = { name : string; unit_ : string; value : float; samples : int }

let metrics : metric list ref = ref []

let emit ?(samples = 1) name unit_ value =
  metrics := { name; unit_; value; samples } :: !metrics

let manifest : (string * J.t) list ref = ref []
let note k v = manifest := !manifest @ [ (k, v) ]

let finish () =
  let ms = List.rev !metrics in
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) ms in
  List.iter
    (fun m -> ignore (check false (m.name ^ " is not a finite number")))
    bad;
  note "samples"
    (J.Obj (List.map (fun m -> (m.name, J.Num (float_of_int m.samples))) ms));
  print_endline (J.to_string (J.Obj [ ("manifest", J.Obj !manifest) ]));
  let metric m =
    ( m.name,
      J.Obj
        [
          ("value", J.Num (if Float.is_finite m.value then m.value else -1.0));
          ("unit", J.Str m.unit_);
        ] )
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0 && !attempted > 0));
            ("attempted", J.Num (float_of_int (max 1 !attempted)));
            ("failed", J.Num (float_of_int !failed));
            ("metrics", J.Obj (List.map metric ms));
          ]))

(* --- responses -------------------------------------------------------------- *)

let is_done (r : P.response) = match r.P.status with P.Done -> true | _ -> false

let member path json =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some json) path

let num path json = Option.bind (member path json) J.to_float
let json_at path json = Option.fold ~none:"" ~some:J.to_string (member path json)
let meta_num k (r : P.response) = Option.bind (List.assoc_opt k r.P.meta) J.to_float

(* Cases 3 and 4 run the sizing<->layout loop; cases 1 and 2 do not. *)
let synth_ok case (r : P.response) =
  let loop = match case with Core.Flow.Case3 | Core.Flow.Case4 -> true | _ -> false in
  is_done r
  &&
  match (num [ "extracted"; "gbw" ] r.P.payload, num [ "layout_calls" ] r.P.payload) with
  | Some g, Some calls -> Float.is_finite g && g > 0.0 && (calls >= 1.0) = loop
  | _ -> false

let opt_ok (r : P.response) =
  is_done r
  && member [ "best"; "feasible" ] r.P.payload = Some (J.Bool true)
  && Option.fold ~none:false ~some:Float.is_finite
       (num [ "best"; "score" ] r.P.payload)

(* Deterministic result quality, lower is better.  Optimize: the
   search's own [best.score].  Synth: power in mW plus 1000 x the
   relative GBW and phase-margin shortfalls of the extracted design
   (the optimizer's 1000:1 deficit weighting). *)
let synth_quality (spec : Spec.t) (r : P.response) =
  let e k = Option.value ~default:Float.nan (num [ "extracted"; k ] r.P.payload) in
  let short got want = Float.max 0.0 (1.0 -. (got /. want)) in
  (1000.0
   *. (short (e "gbw") spec.Spec.gbw
       +. short (e "phase_margin") spec.Spec.phase_margin))
  +. (e "power" *. 1e3)

let opt_quality (r : P.response) =
  Option.value ~default:Float.nan (num [ "best"; "score" ] r.P.payload)

(* --- set-up ---------------------------------------------------------------- *)

let lut_build () =
  snd
    (timed (fun () ->
       List.iter
         (fun m -> ignore (Device.Lut.table proc kind m))
         [ Technology.Electrical.Nmos; Technology.Electrical.Pmos ]))

(* Lazy initialisation a workload pays before its first operation. *)
let prepare w = if w = "optimize" then ignore (lut_build ())

let probe_main w =
  prepare w;
  let r = Api.execute (P.request P.Ping) in
  print_endline (if is_done r then "ready" else "failed");
  exit 0

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)
let live_daemons = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (( <> ) pid) !live_daemons

let () =
  at_exit (fun () ->
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid)
      !live_daemons)

(* Process start to first answered request, for an in-process workload:
   a child driver prepares the workload and answers a ping. *)
let probe_inprocess w =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe"; w |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  line = "ready"

type daemon = { pid : int; sock : string }

(* Daemon start to first answered request. *)
let start_daemon () =
  let sock = Printf.sprintf "%s/serve-%d.sock" runtime_dir (Unix.getpid ()) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let dn = Lazy.force devnull in
  let t0 = now () in
  let pid =
    Unix.create_process !losac
      [| !losac; "serve"; "--socket"; sock; "--executors"; "2" |]
      dn dn Unix.stderr
  in
  live_daemons := pid :: !live_daemons;
  let rec connect () =
    match Serve.Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when now () -. t0 < 60.0 ->
      Unix.sleepf 0.002;
      connect ()
  in
  let c = connect () in
  let ok = is_done (Serve.Client.call c (P.request ~id:0 P.Ping)) in
  Serve.Client.close c;
  ({ pid; sock }, ok)

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid;
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* --- timing against the host-speed reference ---------------------------------- *)

(* A time as measured and scaled to the reference speed ({!Speed}). *)
type sample = { raw : float; norm : float }

let norms = List.map (fun s -> s.norm)
let raws = List.map (fun s -> s.raw)

(* Domains of the reference kernel for the operations: as many as the
   workload keeps busy.  Set-up is single-threaded and uses one. *)
let kernel_domains () = if !workload = "synth_sweep" then 1 else 2

(* Readings of the operations' kernel, for the manifest. *)
let kernel_times = ref []

let speed ~domains =
  let k = Speed.measure ~domains in
  if domains = kernel_domains () then kernel_times := k :: !kernel_times;
  k

(* The latest reading per kernel width, the "before" of the next timing. *)
let reference = Hashtbl.create 2

let sampled ~domains f =
  let k0 =
    match Hashtbl.find_opt reference domains with Some k -> k | None -> speed ~domains
  in
  let v, dt = timed f in
  let k1 = speed ~domains in
  Hashtbl.replace reference domains k1;
  (v, { raw = dt; norm = dt *. Speed.factor k0 k1 })

let setup_probes = 9

let measure_setup w =
  let samples =
    List.init setup_probes (fun _ ->
      let ok, s =
        if w = "serve_mixed" then begin
          let (d, ok), s = sampled ~domains:1 start_daemon in
          stop_daemon d;
          (ok, s)
        end
        else sampled ~domains:1 (fun () -> probe_inprocess w)
      in
      ignore (check ok ("set-up probe of " ^ w));
      s)
  in
  note "setup_raw_s" (J.Num (Stats.median (raws samples)));
  emit ~samples:setup_probes "setup_s" "s" (Stats.median (norms samples))

(* --- end-to-end helpers --------------------------------------------------------- *)

(* [lat]: latencies of the operations that passed their checks. *)
let latency_metrics ~lat ~ops_per_s =
  let n = List.length lat in
  emit ~samples:n "ops_per_s" "1/s" ops_per_s;
  note "p50_raw_ms" (J.Num (Stats.median (raws lat) *. 1e3));
  let lat = norms lat in
  emit ~samples:n "p50_ms" "ms" (Stats.median lat *. 1e3);
  let pm = Stats.highest_reportable n in
  note "tail_percentile"
    (match pm with
     | Some pm -> J.Num (float_of_int pm /. 10.0)
     | None -> J.Str "median (fewer than 20 samples)");
  let q = match pm with Some pm -> float_of_int pm /. 1000.0 | None -> 0.5 in
  emit ~samples:n "tail_ms" "ms" (Stats.quantile lat q *. 1e3)

let peak_rss_mb who = float_of_int (maxrss_kb who) /. 1024.0

(* Run requests one after the other in this process. *)
let run_inprocess reqs =
  List.map
    (fun req ->
      let resp, s = sampled ~domains:(kernel_domains ()) (fun () -> Api.execute req) in
      (req, resp, s))
    reqs

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* A request's payload must not change from run to run.  The first run
   in a checkout that sends a request records a digest of its payload
   under [payload_dir], keyed by the request without its id; every later
   run that sends the same request compares against it.  The spec pool
   is small, so runs with different seeds share many requests.  A change
   of the program that changes results therefore fails this check until
   [payload_dir] is removed. *)
let payload_dir = Filename.concat runtime_dir "payloads"
let payloads_compared = ref 0

let payload_as_recorded (req : P.request) (resp : P.response) =
  let key = J.to_string (P.request_to_json { req with P.id = 0 }) in
  let file = Filename.concat payload_dir (Digest.to_hex (Digest.string key)) in
  let d = Digest.to_hex (Digest.string (J.to_string resp.P.payload)) in
  if Sys.file_exists file then begin
    incr payloads_compared;
    In_channel.with_open_text file input_line = d
  end
  else begin
    mkdir_p payload_dir;
    Out_channel.with_open_text file (fun oc -> output_string oc (d ^ "\n"));
    true
  end

let synth_ops () = max 3 !seconds
let opt_ops () = max 3 (int_of_float (Float.round (float_of_int !seconds /. 2.3)))

(* --- synth_sweep ------------------------------------------------------------------ *)

let synth_sweep () =
  measure_setup "synth_sweep";
  let reqs = Gen.synth_requests ~seed:!seed ~n:(synth_ops ()) in
  let out = run_inprocess reqs in
  let lat =
    List.filter_map
      (fun (req, resp, s) ->
        if
          check
            (synth_ok Core.Flow.Case4 resp && payload_as_recorded req resp)
            (Printf.sprintf "synth op %d" req.P.id)
        then Some s
        else None)
      out
  in
  latency_metrics ~lat ~ops_per_s:(float_of_int (List.length lat) /. sum (norms lat));
  emit "peak_rss_mb" "MB" (peak_rss_mb 0);
  emit ~samples:(List.length out) "quality_score" "score"
    (Stats.median (List.map (fun (req, resp, _) -> synth_quality req.P.spec resp) out));
  (* identity: a cache-off re-execution gives the same bytes *)
  let r = Gen.rng ~seed:!seed ~stream:7 in
  let req, resp, _ = List.nth out (Gen.int r (List.length out)) in
  let again = Api.execute { req with P.cache = Some false } in
  ignore
    (check (P.canonical again = P.canonical resp) "synth re-execution with cache off");
  note "payloads_compared" (J.Num (float_of_int !payloads_compared))

(* --- optimize ------------------------------------------------------------------------ *)

let optimize () =
  measure_setup "optimize";
  prepare "optimize";
  let reqs = Gen.optimize_requests ~seed:!seed ~n:(opt_ops ()) in
  let out = run_inprocess reqs in
  let lat =
    List.filter_map
      (fun (req, resp, s) ->
        if check (opt_ok resp) (Printf.sprintf "optimize op %d" req.P.id)
        then Some s
        else None)
      out
  in
  latency_metrics ~lat ~ops_per_s:(float_of_int (List.length lat) /. sum (norms lat));
  emit "peak_rss_mb" "MB" (peak_rss_mb 0);
  emit ~samples:(List.length out) "quality_score" "score"
    (Stats.median (List.map (fun (_, resp, _) -> opt_quality resp) out));
  (* identity: best and front do not depend on the pool width; the
     cache is off so that every candidate is evaluated again *)
  let r = Gen.rng ~seed:!seed ~stream:7 in
  let req, resp, _ = List.nth out (Gen.int r (List.length out)) in
  let j1 = Api.execute { req with P.jobs = Some 1; cache = Some false } in
  let same k = json_at [ k ] j1.P.payload = json_at [ k ] resp.P.payload in
  ignore (check (is_done j1 && same "best" && same "front") "optimize at jobs 1 vs 2")

(* --- serve_mixed -------------------------------------------------------------------- *)

let serve_blocks () = max 3 (int_of_float (Float.round (float_of_int !seconds /. 7.5)))
let serve_connections = 2

type served = { req : P.request; resp : P.response option; rtt : sample; conn : int }

let rec take n = function
  | x :: rest when n > 0 ->
    let front, back = take (n - 1) rest in
    (x :: front, back)
  | l -> ([], l)

let rec blocks_of l =
  match take Gen.block_size l with
  | [], _ -> []
  | block, rest -> block :: blocks_of rest

(* Closed-loop clients, one connection each, against a fresh daemon.
   The clients meet after every block of the mix, and the host-speed
   reference is read there while the daemon is idle.  Returns the
   answered requests, each client's busy time scaled to the reference
   speed, the pass wall time as measured and the daemon's final [stats]
   payload. *)
let serve_pass lists =
  let d, ok = start_daemon () in
  ignore (check ok "daemon start");
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let blocks = Array.of_list (List.map blocks_of lists) in
  let n = Array.length blocks in
  let conns = Array.map (fun _ -> Serve.Client.connect d.sock) blocks in
  let busy = Array.make n 0.0 and wall = ref 0.0 and all = ref [] in
  let k = ref (speed ~domains:2) in
  List.iteri
    (fun b _ ->
      let out = Array.make n [] and dur = Array.make n 0.0 in
      let client i =
        let t0 = now () in
        out.(i) <-
          List.map
            (fun req ->
              let resp, dt =
                timed (fun () ->
                  match Serve.Client.call conns.(i) req with
                  | resp -> Some resp
                  | exception e ->
                    prerr_endline ("perfbench: request failed: " ^ Printexc.to_string e);
                    None)
              in
              (req, resp, dt))
            (List.nth blocks.(i) b);
        dur.(i) <- now () -. t0
      in
      List.iter Thread.join (List.init n (Thread.create client));
      let k' = speed ~domains:2 in
      let f = Speed.factor !k k' in
      k := k';
      wall := !wall +. Array.fold_left Float.max 0.0 dur;
      Array.iteri
        (fun i rs ->
          busy.(i) <- busy.(i) +. (dur.(i) *. f);
          all :=
            List.rev_map
              (fun (req, resp, dt) -> { req; resp; rtt = { raw = dt; norm = dt *. f }; conn = i })
              rs
            @ !all)
        out)
    blocks.(0);
  let stats = Serve.Client.call conns.(0) (P.request ~id:1_000_000 P.Stats) in
  Array.iter Serve.Client.close conns;
  (List.rev !all, busy, !wall, stats.P.payload)

let served_ok s =
  match s.resp with
  | Some r -> (
    is_done r
    &&
    match s.req.P.workload with
    | P.Synth { case } -> synth_ok case r
    | P.Optimize _ -> opt_ok r
    | _ -> true)
  | None -> false

(* Sampled responses must carry the same canonical bytes as a direct
   in-process execution of the same request. *)
let check_served_against_direct all =
  let r = Gen.rng ~seed:!seed ~stream:8 in
  List.concat_map
    (fun name ->
      let of_kind =
        List.filter
          (fun s -> P.workload_name s.req.P.workload = name && served_ok s)
          all
      in
      match of_kind with
      | [] -> []
      | _ ->
        let s = List.nth of_kind (Gen.int r (List.length of_kind)) in
        let direct, dt = timed (fun () -> Api.execute s.req) in
        let same =
          match s.resp with
          | Some resp -> P.canonical resp = P.canonical direct
          | None -> false
        in
        ignore (check same ("served vs direct bytes for " ^ name));
        [ dt ])
    [ "ping"; "synth"; "size"; "verify"; "optimize" ]

let serve_lists blocks =
  Gen.serve_requests ~seed:!seed ~blocks ~connections:serve_connections

let serve_mixed () =
  measure_setup "serve_mixed";
  let all, busy, _, _ = serve_pass (serve_lists (serve_blocks ())) in
  let ok =
    List.filter
      (fun s ->
        check (served_ok s)
          (Printf.sprintf "served %s %d" (P.workload_name s.req.P.workload) s.req.P.id))
      all
  in
  (* each client's own closed-loop rate, summed *)
  let ops_per_s =
    sum
      (List.mapi
         (fun i b -> float_of_int (List.length (List.filter (fun s -> s.conn = i) ok)) /. b)
         (Array.to_list busy))
  in
  latency_metrics ~lat:(List.map (fun s -> s.rtt) ok) ~ops_per_s;
  emit "peak_rss_mb" "MB" (peak_rss_mb 1);
  let scores =
    List.filter_map
      (fun s ->
        match (s.req.P.workload, s.resp) with
        | P.Optimize _, Some r -> Some (opt_quality r)
        | _ -> None)
      all
  in
  emit ~samples:(List.length scores) "quality_score" "score" (Stats.median scores);
  ignore (check_served_against_direct all)

(* --- traced run: per-layer attribution ------------------------------------------------ *)

type stages = {
  mutable size : float;
  mutable passes : int;
  mutable cairo : float;
  mutable calls : int;
  mutable core : float;
  mutable dc : float;
  mutable ac : float;
  mutable noise : float;
  mutable tran : float;
}

let new_stages () =
  { size = 0.; passes = 0; cairo = 0.; calls = 0; core = 0.; dc = 0.; ac = 0.;
    noise = 0.; tran = 0. }

let attributed st = st.size +. st.cairo +. st.core +. st.dc +. st.ac +. st.noise +. st.tran

(* Calls into the public functions of each layer, CPU-timed.
   [Testbench]'s measurements are split by analysis: DC (bench
   construction with the offset nulling, power), AC (gain, GBW, phase
   margin, output resistance, CMRR), noise, and the slew-rate
   transient. *)
let measure_amp st ~spec amp =
  let into add f =
    let v, dt = cpu_timed f in
    add dt;
    v
  in
  let dc f = into (fun d -> st.dc <- st.dc +. d) f in
  let ac f = into (fun d -> st.ac <- st.ac +. d) f in
  let noise f = into (fun d -> st.noise <- st.noise +. d) f in
  let tb = dc (fun () -> TB.make ~proc ~kind ~spec amp) in
  let fu = match ac (fun () -> TB.gbw tb) with Some f -> f | None -> Float.nan in
  let pm = match ac (fun () -> TB.phase_margin tb) with Some p -> p | None -> Float.nan in
  let white_freq = if Float.is_nan fu then 10e6 else Float.max 1e5 (fu /. 4.0) in
  let fmax = if Float.is_nan fu then 100e6 else fu in
  let dc_gain_db = ac (fun () -> Sim.Measure.db (TB.dc_gain tb)) in
  let slew_rate = into (fun d -> st.tran <- st.tran +. d) (fun () -> TB.slew_rate tb) in
  let cmrr_db = ac (fun () -> Sim.Measure.db (TB.cmrr tb)) in
  let output_resistance = ac (fun () -> TB.output_resistance tb) in
  let input_noise = noise (fun () -> TB.integrated_input_noise tb ~fmin:1.0 ~fmax) in
  let thermal_noise_density =
    noise (fun () -> TB.input_noise_density tb ~freq:white_freq)
  in
  let flicker_noise_density = noise (fun () -> TB.input_noise_density tb ~freq:1.0) in
  let power = dc (fun () -> TB.power tb) in
  {
    Comdiac.Performance.dc_gain_db; gbw = fu; phase_margin = pm; slew_rate;
    cmrr_db; offset = TB.offset tb; output_resistance; input_noise;
    thermal_noise_density; flicker_noise_density; power;
  }

(* The case-4 flow of [Core.Flow.run], replayed from its public pieces
   with the CPU time of every call taken. *)
let replay_case4 ~spec =
  let st = new_stages () in
  let size parasitics =
    let (design, passes), dt =
      cpu_timed (fun () -> Core.Flow.size_calibrated ~proc ~kind ~spec ~parasitics)
    in
    st.size <- st.size +. dt;
    st.passes <- st.passes + passes;
    design
  in
  let layout mode design =
    let report, dt =
      cpu_timed (fun () ->
        Core.Layout_bridge.call_layout ~mode proc design
          Core.Layout_bridge.default_options)
    in
    st.cairo <- st.cairo +. dt;
    st.calls <- st.calls + 1;
    report
  in
  let core f =
    let v, dt = cpu_timed f in
    st.core <- st.core +. dt;
    v
  in
  let rec loop design parasitics iter =
    if iter >= 8 then design
    else
      let report = layout Cairo_layout.Plan.Parasitic_only design in
      let parasitics' =
        core (fun () -> Core.Layout_bridge.parasitics_of_report ~include_routing:true report)
      in
      if Comdiac.Parasitics.max_distance parasitics parasitics' < 0.02 then design
      else loop (size parasitics') parasitics' (iter + 1)
  in
  let d0 = size Comdiac.Parasitics.single_fold in
  let design = loop d0 Comdiac.Parasitics.single_fold 0 in
  let report = layout Cairo_layout.Plan.Generation design in
  let synthesized = measure_amp st ~spec design.FC.amp in
  let amp_ext = core (fun () -> Core.Flow.extracted_amp proc design report) in
  let extracted = measure_amp st ~spec amp_ext in
  (st, synthesized, extracted)

let solver_counters =
  [ "sim.dcop.newton_iters"; "sim.dcop.solves"; "sim.acs.solves";
    "linalg.real.factors"; "linalg.cx.factors" ]

let counters () = List.map Obs.Metrics.counter solver_counters

type gc_acc = { mutable minor : float; mutable major : int; mutable gc_ops : int }

let gc_acc = { minor = 0.; major = 0; gc_ops = 0 }

(* Execute [f], which runs [ops f_result] operations, and add its GC
   work to [gc_acc] when [count]. *)
let with_gc ~count ?(ops = fun _ -> 1) f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  if count then begin
    gc_acc.minor <- gc_acc.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    gc_acc.major <- gc_acc.major + (g1.Gc.major_collections - g0.Gc.major_collections);
    gc_acc.gc_ops <- gc_acc.gc_ops + ops v
  end;
  v

(* Same request untraced and with telemetry on.  Returns the untraced
   response, its wall and CPU time and the traced CPU time. *)
let untraced_and_traced ~count req =
  Cache.Memo.clear_all ();
  let (r0, cpu0), w0 =
    timed (fun () -> cpu_timed (fun () -> with_gc ~count (fun () -> Api.execute req)))
  in
  Cache.Memo.clear_all ();
  let c0 = counters () in
  let r1, cpu1 = cpu_timed (fun () -> Api.execute { req with P.telemetry = true }) in
  let deltas = List.map2 ( -. ) (counters ()) c0 in
  ignore
    (check (P.canonical r0 = P.canonical r1)
       (Printf.sprintf "%s %d: telemetry changed the result"
          (P.workload_name req.P.workload) req.P.id));
  (r0, w0, cpu0, cpu1, deltas)

let mean_per n x = x /. float_of_int (max 1 n)

(* Executions of each traced synth op and of its replay, alternated, for
   [attr.attributed_frac]: the host's speed swings by a third from one
   execution to the next, and the fastest of a few is the one least
   slowed by other tenants. *)
let attr_reps = 3

let replay_synth spec =
  cpu_timed (fun () -> Cache.Config.with_enabled false (fun () -> replay_case4 ~spec))

let trace_synth ~n =
  let specs = Gen.synth_specs ~seed:!seed ~n in
  let untraced = ref [] and traced = ref [] and sts = ref [] and cnt = ref [] in
  let replays = ref [] and ratios = ref [] in
  List.iteri
    (fun id spec ->
      let req =
        P.request ~id ~spec ~jobs:1 ~cache:false (P.Synth { case = Core.Flow.Case4 })
      in
      let r0, _, cpu0, cpu1, deltas =
        untraced_and_traced ~count:(!workload = "synth_sweep") req
      in
      let (st, synthesized, extracted), replay_cpu = replay_synth spec in
      let same k perf = json_at [ k ] r0.P.payload = J.to_string (Api.perf_to_json perf) in
      ignore
        (check
           (synth_ok Core.Flow.Case4 r0
           && same "synthesized" synthesized
           && same "extracted" extracted
           && num [ "layout_calls" ] r0.P.payload = Some (float_of_int (st.calls - 1))
           && num [ "sizing_passes" ] r0.P.payload = Some (float_of_int st.passes))
           (Printf.sprintf "synth replay %d matches the op" id));
      untraced := cpu0 :: !untraced;
      traced := cpu1 :: !traced;
      replays := replay_cpu :: !replays;
      let again =
        List.init (attr_reps - 1) (fun _ ->
          Cache.Memo.clear_all ();
          let _, op = cpu_timed (fun () -> Api.execute req) in
          let (st', _, _), _ = replay_synth spec in
          (op, attributed st'))
      in
      let fastest = List.fold_left Float.min Float.infinity in
      ratios :=
        (fastest (attributed st :: List.map snd again) /. fastest (cpu0 :: List.map fst again))
        :: !ratios;
      sts := st :: !sts;
      cnt := deltas :: !cnt)
    specs;
  let sts = !sts in
  let per f = mean_per n (sum (List.map f sts)) in
  let ms f = per f *. 1e3 in
  emit ~samples:n "comdiac.size_ms" "ms" (ms (fun s -> s.size));
  emit ~samples:n "comdiac.sizing_passes" "count/op" (per (fun s -> float_of_int s.passes));
  emit ~samples:n "cairo.plan_ms" "ms" (ms (fun s -> s.cairo));
  emit ~samples:n "cairo.plan_calls" "count/op" (per (fun s -> float_of_int s.calls));
  emit ~samples:n "core.extract_ms" "ms" (ms (fun s -> s.core));
  emit ~samples:n "sim.dc_ms" "ms" (ms (fun s -> s.dc));
  emit ~samples:n "sim.ac_ms" "ms" (ms (fun s -> s.ac));
  emit ~samples:n "sim.noise_ms" "ms" (ms (fun s -> s.noise));
  emit ~samples:n "sim.tran_ms" "ms" (ms (fun s -> s.tran));
  emit ~samples:n "sim.tran_share" "ratio" (sum (List.map (fun s -> s.tran) sts) /. sum !replays);
  List.iteri
    (fun i name ->
      emit ~samples:n name "count/op" (mean_per n (sum (List.map (fun d -> List.nth d i) !cnt))))
    solver_counters;
  emit ~samples:n "attr.attributed_frac" "ratio" (Stats.median !ratios);
  (sum !untraced, sum !traced)

let trace_optimize ~n =
  let untraced = ref [] and traced = ref [] and stages = ref [] and ratios = ref [] in
  let coarse = ref 0 and polish = ref 0 and simv = ref 0 in
  let busy = ref [] and qwait = ref [] and steals = ref 0 and hit = ref [] in
  List.iteri
    (fun id s ->
      let req = P.request ~id ~jobs:2 ~seed:s Gen.optimize_workload in
      let r0, w0, cpu0, cpu1, _ = untraced_and_traced ~count:(!workload = "optimize") req in
      Cache.Memo.clear_all ();
      Par.Pool.reset_stats ();
      let ctx = Exec.Ctx.make ~jobs:2 ~seed:s proc in
      let res, wd =
        timed (fun () ->
          Opt.Search.run ~ctx ~starts:6 ~budget:480 ~strategy:Opt.Search.Nelder_mead
            ~lut:true ~measure:false ~kind ~spec:Spec.paper_ota ())
      in
      (* the winner's Table-1 measurement, which the op runs last *)
      let perf, measure_s =
        timed (fun () ->
          Cache.Config.with_enabled false (fun () ->
            Option.map
              (fun d -> Api.perf_to_json (TB.performance (TB.make ~proc ~kind ~spec:Spec.paper_ota d.FC.amp)))
              res.Opt.Search.best_design))
      in
      let ws = Par.Pool.worker_stats () in
      let tot f = List.fold_left (fun a w -> a +. f w) 0.0 ws in
      busy := (tot (fun w -> w.Par.Pool.ws_busy_us) /. (2.0 *. wd *. 1e6)) :: !busy;
      qwait :=
        (tot (fun w -> w.Par.Pool.ws_wait_us)
         /. Float.max 1.0 (tot (fun w -> float_of_int w.Par.Pool.ws_tasks))
         /. 1e3)
        :: !qwait;
      steals := !steals + int_of_float (tot (fun w -> float_of_int w.Par.Pool.ws_steals));
      (match
         List.find_opt (fun m -> m.Cache.Memo.name = "opt.candidate") (Cache.Memo.registry ())
       with
       | Some m -> hit := Cache.Memo.hit_rate m :: !hit
       | None -> ());
      ignore
        (check
           (opt_ok r0
           && num [ "best"; "score" ] r0.P.payload = Some res.Opt.Search.best.Opt.Objective.score
           && Option.map J.to_string perf = Option.map J.to_string (member [ "performance" ] r0.P.payload))
           (Printf.sprintf "optimize replay %d matches the op" id));
      coarse := !coarse + res.Opt.Search.evals_coarse;
      polish := !polish + res.Opt.Search.evals_polish;
      simv := !simv + res.Opt.Search.evals_sim;
      let search_s = res.Opt.Search.elapsed_search_s
      and verify_s = res.Opt.Search.elapsed_verify_s in
      stages := (search_s, verify_s, measure_s) :: !stages;
      ratios := ((search_s +. verify_s +. measure_s) /. w0) :: !ratios;
      untraced := cpu0 :: !untraced;
      traced := cpu1 :: !traced)
    (Gen.opt_seeds ~seed:!seed ~n);
  let per x = mean_per n (float_of_int x) in
  emit ~samples:n "opt.evals_coarse" "count/op" (per !coarse);
  emit ~samples:n "opt.evals_polish" "count/op" (per !polish);
  emit ~samples:n "opt.evals_sim" "count/op" (per !simv);
  let stage f = mean_per n (sum (List.map f !stages)) *. 1e3 in
  emit ~samples:n "opt.search_ms" "ms" (stage (fun (s, _, _) -> s));
  emit ~samples:n "opt.verify_ms" "ms" (stage (fun (_, v, _) -> v));
  emit ~samples:n "opt.measure_ms" "ms" (stage (fun (_, _, m) -> m));
  emit ~samples:n "attr.opt_attributed_frac" "ratio" (Stats.median !ratios);
  emit ~samples:n "cache.opt.candidate.hit_rate" "ratio" (Stats.median !hit);
  emit ~samples:n "par.busy_frac" "ratio" (Stats.median !busy);
  emit ~samples:n "par.queue_wait_ms" "ms" (Stats.median !qwait);
  emit ~samples:n "par.steals" "count/op" (per !steals);
  (sum !untraced, sum !traced)

(* Cost of one call per tier on seeded candidates, cache off. *)
let trace_evals () =
  let t = Opt.Objective.make ~proc ~kind ~spec:Spec.paper_ota () in
  let r = Par.Splitmix.create !seed in
  let vecs k = List.init k (fun _ -> Opt.Objective.sample_vec r) in
  let per_call f vs = Stats.median (List.map (fun v -> snd (timed (fun () -> f v))) vs) *. 1e6 in
  Cache.Config.with_enabled false @@ fun () ->
  List.iter
    (fun (mode, k) ->
      emit ~samples:k ("opt.eval_us." ^ Opt.Objective.mode_tag mode) "us"
        (per_call (fun v -> ignore (Opt.Objective.eval t ~mode v)) (vecs k)))
    [ (Opt.Objective.Lut_plan, 40); (Opt.Objective.Exact_plan, 40); (Opt.Objective.Simulated, 6) ];
  emit ~samples:40 "comdiac.plan_us" "us"
    (per_call
       (fun v ->
         try
           ignore
             (FC.size_with ~knobs:(Opt.Objective.knobs_of_vec v) ~dev_eval:FC.Exact_model
                ~proc ~kind ~spec:Spec.paper_ota ~parasitics:Comdiac.Parasitics.single_fold ())
         with Failure _ -> ())
       (vecs 40))

(* How often the nominal sizing plan fails to converge on specs drawn
   uniformly over the full ranges, not from the vetted pool: a known
   defect of the plan (its cascode-length ladder can cycle), kept in
   view here because the timed workloads only use vetted specs. *)
let trace_convergence () =
  let r = Gen.rng ~seed:!seed ~stream:9 in
  let k = 40 in
  let failures =
    List.init k (fun _ ->
      let p = Gen.point_of_unit (Gen.float r) (Gen.float r) (Gen.float r) in
      match
        FC.size ~proc ~kind ~spec:(Gen.spec_of_point p)
          ~parasitics:Comdiac.Parasitics.single_fold
      with
      | _ -> 0.0
      | exception Failure _ -> 1.0)
  in
  emit ~samples:k "comdiac.nonconverged_frac" "ratio" (sum failures /. float_of_int k)

let serve_kinds = [ "ping"; "stats"; "synth"; "size"; "verify"; "optimize" ]

let trace_serve ~blocks =
  let all, _, wall, stats = serve_pass (serve_lists blocks) in
  let ok = List.filter (fun s -> check (served_ok s) "served request") all in
  let n = List.length ok in
  List.iter
    (fun k ->
      let rtts =
        List.filter_map
          (fun s -> if P.workload_name s.req.P.workload = k then Some s.rtt.raw else None)
          ok
      in
      emit ~samples:(List.length rtts) ("serve.rtt_ms." ^ k) "ms" (Stats.median rtts *. 1e3))
    serve_kinds;
  let meta k = List.map (fun s -> Option.bind s.resp (meta_num k)) ok in
  let queue = List.map (Option.value ~default:Float.nan) (meta "queue_wait_s") in
  let exec = List.map (Option.value ~default:Float.nan) (meta "elapsed_s") in
  emit ~samples:n "serve.queue_wait_ms" "ms" (Stats.median queue *. 1e3);
  emit ~samples:n "serve.exec_ms" "ms" (Stats.median exec *. 1e3);
  emit ~samples:n "serve.overhead_ms" "ms"
    (Stats.median
       (List.map2 (fun s (q, e) -> s.rtt.raw -. q -. e) ok (List.combine queue exec))
     *. 1e3);
  emit ~samples:n "serve.executor_busy_frac" "ratio" (sum exec /. (2.0 *. wall));
  let caches = Option.value ~default:[] (Option.bind (J.member "caches" stats) J.to_list) in
  List.iter
    (fun name ->
      let rate =
        List.find_map
          (fun c ->
            if J.member "name" c = Some (J.Str name) then num [ "hit_rate" ] c else None)
          caches
      in
      emit ("cache." ^ name ^ ".hit_rate") "ratio" (Option.value ~default:Float.nan rate))
    [ "flow.sizing"; "comdiac.performance"; "cairo.variants"; "device.eval" ];
  ignore
    (with_gc ~count:(!workload = "serve_mixed") ~ops:List.length (fun () ->
       check_served_against_direct all))

let traced_run () =
  let mine w k other = if !workload = w then k else other in
  emit "device.lut.build_ms" "ms" (lut_build () *. 1e3);
  let w0s, w1s = trace_synth ~n:(mine "synth_sweep" 6 2) in
  let w0o, w1o = trace_optimize ~n:(mine "optimize" 3 1) in
  trace_evals ();
  trace_convergence ();
  trace_serve ~blocks:(mine "serve_mixed" 4 1);
  emit "obs.trace_overhead_frac" "ratio" (((w1s +. w1o) /. (w0s +. w0o)) -. 1.0);
  emit ~samples:gc_acc.gc_ops "gc.minor_mwords_per_op" "Mwords"
    (mean_per gc_acc.gc_ops gc_acc.minor /. 1e6);
  emit ~samples:gc_acc.gc_ops "gc.major_collections_per_op" "count/op"
    (mean_per gc_acc.gc_ops (float_of_int gc_acc.major))

(* --- main ------------------------------------------------------------------------------ *)

let () =
  if Array.mem Speed.child_flag Sys.argv then Speed.child_main ();
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME synth_sweep | optimize | serve_mixed");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--losac", Arg.Set_string losac, "PATH losac executable (serve_mixed)");
      ("--commit", Arg.Set_string commit, "ID commit recorded in the manifest");
      ("--source-digest", Arg.Set_string source_digest, "HEX source digest for the manifest");
      ("--probe", Arg.Set_string probe, "NAME (internal) set-up probe child");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "driver.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !probe <> "" then probe_main !probe;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  mkdir_p runtime_dir;
  note "workload" (J.Str !workload);
  note "seed" (J.Num (float_of_int !seed));
  note "seconds" (J.Num (float_of_int !seconds));
  note "trace" (J.Num (float_of_int !trace));
  note "nproc" (J.Num (float_of_int (Domain.recommended_domain_count ())));
  note "ctx_jobs"
    (J.Obj [ ("synth_sweep", J.Num 1.); ("optimize", J.Num 2.); ("serve_mixed", J.Num 1.) ]);
  note "executors" (J.Num 2.);
  note "connections" (J.Num (float_of_int serve_connections));
  note "ocaml" (J.Str Sys.ocaml_version);
  note "ocamlrunparam" (J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
  note "commit" (J.Str !commit);
  note "source_digest" (J.Str !source_digest);
  if !trace = 1 then traced_run ()
  else begin
    match !workload with
    | "synth_sweep" -> synth_sweep ()
    | "optimize" -> optimize ()
    | _ -> serve_mixed ()
  end;
  if !kernel_times <> [] then
    note "speed_kernel_ms"
      (J.Obj
         [
           ("domains", J.Num (float_of_int (kernel_domains ())));
           ("nominal", J.Num (Speed.nominal_s *. 1e3));
           ("median", J.Num (Stats.median !kernel_times *. 1e3));
           ("min", J.Num (List.fold_left Float.min Float.infinity !kernel_times *. 1e3));
           ("max", J.Num (List.fold_left Float.max 0.0 !kernel_times *. 1e3));
         ]);
  note "attempted" (J.Num (float_of_int !attempted));
  finish ()
