(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe table1     -- one experiment
     experiments: table1 fig1 fig2 fig3 fig4 fig5 ablation statistics timing
                  cache kernels sparse scaling serve
   [--backend NAME] selects the default linear-solver backend for every
   analysis (kernel | reference | sparse | sparse-natural); [sparse]
   compares dense vs CSR refactorization and dumps [--sparse-json FILE]
   (CI keeps it as BENCH_sparse.json).

   [timing] additionally compares sequential vs domain-pool wall-clock
   for the embarrassingly parallel workloads (Monte Carlo, corner sweep,
   flow cases); pass [--json FILE] to dump those measurements as a
   machine-readable file (used by CI as BENCH_timing.json).

   [scaling] sweeps jobs = 1..cores over the same workloads and measures
   the jobs=1 forced-pool overhead against the inline sequential path;
   [--scaling-json FILE] dumps the sweep (CI keeps BENCH_scaling.json)
   and the overhead fraction is gated against bench/baselines with an
   absolute band.

   Absolute numbers come from this repository's synthetic 0.6 um process
   and in-house simulator, so only the *shape* of each result is expected
   to match the paper (see EXPERIMENTS.md). *)

let proc = Technology.Process.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

let hr () = Format.printf "%s@." (String.make 78 '-')

let section title =
  hr ();
  Format.printf "%s@." title;
  hr ()

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let flow_results = lazy (Core.Flow.run_all ~proc ~kind ~spec ())

let table1 () =
  section "Table 1 - sizing, layout and simulation results (paper vs this repo)";
  Format.printf "input spec: %a@." Comdiac.Spec.pp spec;
  let results = Lazy.force flow_results in
  List.iter
    (fun (r : Core.Flow.result) ->
      Format.printf "%s: %s -- %d layout call(s), %.1f s@."
        (Core.Flow.case_label r.Core.Flow.case)
        (Core.Flow.case_description r.Core.Flow.case)
        r.Core.Flow.layout_calls r.Core.Flow.elapsed)
    results;
  Format.printf
    "@.cells: synthesized (extracted); 'paper' row from DATE 2000 Table 1, \
     'ours' row measured here@.@.";
  let ours_values (p : Comdiac.Performance.t) =
    [
      p.Comdiac.Performance.dc_gain_db;
      p.Comdiac.Performance.gbw /. 1e6;
      p.Comdiac.Performance.phase_margin;
      p.Comdiac.Performance.slew_rate /. 1e6;
      p.Comdiac.Performance.cmrr_db;
      p.Comdiac.Performance.offset /. 1e-3;
      p.Comdiac.Performance.output_resistance /. 1e6;
      p.Comdiac.Performance.input_noise /. 1e-6;
      p.Comdiac.Performance.thermal_noise_density /. 1e-9;
      p.Comdiac.Performance.flicker_noise_density /. 1e-6;
      p.Comdiac.Performance.power /. 1e-3;
    ]
  in
  Format.printf "%-34s %-6s" "specification" "";
  List.iter
    (fun (r : Core.Flow.result) ->
      Format.printf " %16s" (Core.Flow.case_label r.Core.Flow.case))
    results;
  Format.printf "@.";
  List.iteri
    (fun row_i (row : Paper_data.row) ->
      Format.printf "%-34s %-6s" row.Paper_data.label "paper";
      Array.iter
        (fun cell ->
          match cell with
          | Some (s, e) -> Format.printf " %7.2f (%6.2f)" s e
          | None -> Format.printf " %16s" "n/a")
        row.Paper_data.cases;
      Format.printf "@.%-34s %-6s" "" "ours";
      List.iter
        (fun (r : Core.Flow.result) ->
          let s = List.nth (ours_values r.Core.Flow.synthesized) row_i in
          let e = List.nth (ours_values r.Core.Flow.extracted) row_i in
          Format.printf " %7.2f (%6.2f)" s e)
        results;
      Format.printf "@.")
    Paper_data.table1

(* ------------------------------------------------------------------ *)
(* Figure 1 - design flow comparison                                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1 - traditional flow (a) vs layout-oriented flow (b)";
  let trad = Core.Traditional.run ~proc ~kind ~spec () in
  Format.printf
    "traditional flow: %d full layout generations, %d extracted-netlist \
     verifications, converged: %b, %.2f s@."
    trad.Core.Traditional.full_layouts
    trad.Core.Traditional.extracted_simulations trad.Core.Traditional.converged
    trad.Core.Traditional.elapsed;
  List.iter
    (fun (it : Core.Traditional.iteration) ->
      Format.printf "  iteration %d: extracted GBW %.1f MHz, PM %.1f deg%s@."
        it.Core.Traditional.index
        (it.Core.Traditional.gbw /. 1e6)
        it.Core.Traditional.pm
        (if it.Core.Traditional.met then "  <- meets spec" else ""))
    trad.Core.Traditional.iterations;
  let r4 = List.nth (Lazy.force flow_results) 3 in
  Format.printf
    "layout-oriented flow: %d parasitic-mode calls + 1 generation, %.2f s \
     (paper: %d layout-tool calls before convergence)@."
    r4.Core.Flow.layout_calls r4.Core.Flow.elapsed
    Paper_data.paper_layout_calls_case4;
  Format.printf
    "first-silicon quality: layout-oriented extracted GBW %.1f MHz / PM %.1f \
     deg without any full-layout iteration@."
    (r4.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6)
    r4.Core.Flow.extracted.Comdiac.Performance.phase_margin

(* ------------------------------------------------------------------ *)
(* Figure 2 - capacitance reduction factor                              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2 - capacitance reduction factor F vs number of folds";
  Format.printf
    "%4s  %-22s %-22s %-22s@." "Nf" "(a) even, internal" "(b) even, external"
    "(c) odd";
  Format.printf "%4s  %-10s %-11s %-10s %-11s %-10s %-11s@." "" "formula"
    "geometry" "formula" "geometry" "formula" "geometry";
  let module F = Device.Folding in
  let geometry_f nf ~drain_internal ~drain =
    let w = 60e-6 in
    F.effective_width proc ~w { F.nf; drain_internal } ~drain /. w
  in
  for nf = 1 to 20 do
    let cell case ~drain_internal ~drain =
      let odd_case = case = F.Odd in
      if odd_case <> (nf mod 2 = 1) then None
      else Some (F.reduction_factor case nf, geometry_f nf ~drain_internal ~drain)
    in
    let a = cell F.Even_internal ~drain_internal:true ~drain:true in
    let b = cell F.Even_external ~drain_internal:true ~drain:false in
    let c = cell F.Odd ~drain_internal:true ~drain:true in
    let pp = function
      | Some (f, g) -> Printf.sprintf "%-10.4f %-11.4f" f g
      | None -> Printf.sprintf "%-10s %-11s" "-" "-"
    in
    Format.printf "%4d  %s %s %s@." nf (pp a) (pp b) (pp c)
  done;
  Format.printf
    "@.shape check: F(a) is flat at 1/2; F(b) and F(c) drop steeply over \
     the first few folds, as in the paper's Fig. 2.@."

(* ------------------------------------------------------------------ *)
(* Figure 3 - current mirror M1:M2:M3 = 1:3:6                           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Figure 3 - matched current mirror, ratios M1:M2:M3 = 1:3:6";
  let module Stack = Cairo_layout.Stack in
  let mk_spec current =
    {
      Stack.elements =
        [
          { Stack.el_name = "1"; units = 1; drain_net = "d1";
            current = 1.0 *. current };
          { Stack.el_name = "2"; units = 3; drain_net = "d2";
            current = 3.0 *. current };
          { Stack.el_name = "3"; units = 6; drain_net = "d3";
            current = 6.0 *. current };
        ];
      mtype = Technology.Electrical.Nmos;
      unit_w = 12e-6;
      l = 2e-6;
      source_net = "vss";
      gate = Stack.Common "bias";
      bulk_net = "vss";
      dummies = true;
    }
  in
  (* high current density, as in the paper's example *)
  let r = Stack.generate proc (mk_spec 1.0e-3) in
  Format.printf "unit placement (D = dummy): %a@." Stack.pp_placement
    r.Stack.placement;
  List.iter
    (fun name ->
      Format.printf
        "  M%s: centroid offset %.2f unit pitches, current-direction \
         imbalance %d@."
        name
        (Stack.centroid_offset r.Stack.placement name)
        (Stack.orientation_imbalance r.Stack.placement name))
    [ "1"; "2"; "3" ];
  List.iter
    (fun (name, w) ->
      Format.printf "  M%s: EM-driven drain strap width %d lambda (%.2f um)@."
        name w
        (float_of_int w *. proc.Technology.Process.lambda *. 1e6))
    r.Stack.strap_widths;
  Format.printf "  contacts per diffusion strip: %d@." r.Stack.contacts_per_strip;
  let low = Stack.generate proc (mk_spec 0.05e-3) in
  Format.printf
    "  reliability check: at 20x lower current the M3 strap shrinks from %d \
     to %d lambda@."
    (List.assoc "3" r.Stack.strap_widths)
    (List.assoc "3" low.Stack.strap_widths);
  Format.printf "@.layout (ASCII; %s):@.%s@." Cairo_layout.Render.legend
    (Cairo_layout.Render.ascii ~max_cols:110 r.Stack.cell)

(* ------------------------------------------------------------------ *)
(* Figure 4 - the folded cascode OTA schematic                          *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4 - folded cascode OTA (case 4 sizing, SPICE deck)";
  let r4 = List.nth (Lazy.force flow_results) 3 in
  let amp = r4.Core.Flow.design.Comdiac.Folded_cascode.amp in
  let circuit =
    Comdiac.Amp.add_to amp (Netlist.Circuit.create ~title:"folded cascode OTA")
  in
  Format.printf "%s@." (Netlist.Circuit.to_spice circuit);
  Format.printf "%a@." Comdiac.Folded_cascode.pp_design r4.Core.Flow.design

(* ------------------------------------------------------------------ *)
(* Figure 5 - the generated layout                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5 - generated layout of the case-4 OTA";
  let r4 = List.nth (Lazy.force flow_results) 3 in
  let report = r4.Core.Flow.report in
  let module Plan = Cairo_layout.Plan in
  Format.printf "floorplan: %d x %d lambda (%.0f x %.0f um), area %.3f mm^2@."
    report.Plan.total_w report.Plan.total_h
    (float_of_int report.Plan.total_w *. proc.Technology.Process.lambda *. 1e6)
    (float_of_int report.Plan.total_h *. proc.Technology.Process.lambda *. 1e6)
    (float_of_int (report.Plan.total_w * report.Plan.total_h)
     *. proc.Technology.Process.lambda *. proc.Technology.Process.lambda *. 1e6);
  List.iter
    (fun (name, style) ->
      Format.printf "  %-5s nf = %-2d drains %s@." name style.Device.Folding.nf
        (if style.Device.Folding.drain_internal then "internal" else "external"))
    report.Plan.device_styles;
  List.iter
    (fun (s : Plan.net_summary) ->
      if Plan.net_total s > 1e-15 then
        Format.printf "  net %-5s parasitic %s (well %s)@." s.Plan.net
          (Phys.Units.to_si_string "F" (Plan.net_total s))
          (Phys.Units.to_si_string "F" s.Plan.well_cap))
    report.Plan.nets;
  match report.Plan.cell with
  | None -> Format.printf "no cell (parasitic mode)@."
  | Some cell ->
    Format.printf "@.%s@.%s@." Cairo_layout.Render.legend
      (Cairo_layout.Render.ascii ~max_cols:110 cell)

(* ------------------------------------------------------------------ *)
(* Ablation - the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation - pair style, model kind and shape constraint";
  let run_with options =
    Core.Flow.run ~options ~proc ~kind ~spec Core.Flow.Case4
  in
  let cc = List.nth (Lazy.force flow_results) 3 in
  let inter =
    run_with
      { Core.Layout_bridge.default_options with
        Core.Layout_bridge.pair_style = Cairo_layout.Pair.Interdigitated }
  in
  Format.printf
    "pair style      : common centroid GBW %.2f MHz / interdigitated %.2f MHz \
     (extracted)@."
    (cc.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6)
    (inter.Core.Flow.extracted.Comdiac.Performance.gbw /. 1e6);
  let lvl1 = Core.Flow.run ~proc ~kind:Device.Model.Level1 ~spec Core.Flow.Case4 in
  Format.printf
    "model kind      : bsim-lite power %.2f mW / level1 power %.2f mW \
     (same spec)@."
    (cc.Core.Flow.extracted.Comdiac.Performance.power /. 1e-3)
    (lvl1.Core.Flow.extracted.Comdiac.Performance.power /. 1e-3);
  let flat =
    run_with
      { Core.Layout_bridge.default_options with
        Core.Layout_bridge.aspect = None; max_h = Some 360 }
  in
  let module Plan = Cairo_layout.Plan in
  Format.printf
    "shape constraint: aspect [0.5,2.0] -> %dx%d lambda; module stack \
     capped at 360 -> %dx%d lambda incl. routing channel (folds re-chosen \
     by the optimiser)@."
    cc.Core.Flow.report.Plan.total_w cc.Core.Flow.report.Plan.total_h
    flat.Core.Flow.report.Plan.total_w flat.Core.Flow.report.Plan.total_h;
  let nf r name =
    (List.assoc name r.Core.Flow.report.Plan.device_styles).Device.Folding.nf
  in
  Format.printf "                  TAIL folds: %d (square) vs %d (flat)@."
    (nf cc "TAIL") (nf flat "TAIL")

(* ------------------------------------------------------------------ *)
(* Timing - bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let bechamel_run name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun _key v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] ->
        Format.printf "  %-36s %10.3f ms/run@." name (est /. 1e6)
      | Some _ | None -> Format.printf "  %-36s (no estimate)@." name)
    results

(* seq-vs-parallel wall-clock records accumulated by [timing], dumped by
   [--json FILE] *)
let timing_records : Obs.Json.t list ref = ref []

let compare_seq_par ~name ~jobs run =
  let wall f =
    (* cold-start each measurement: a warm memo cache would otherwise let
       the second (parallel) run answer from the first run's results and
       inflate the apparent speedup *)
    Cache.Memo.clear_all ();
    let t0 = Obs.Clock.monotonic_s () in
    ignore (f ());
    Obs.Clock.monotonic_s () -. t0
  in
  let seq_s = wall (fun () -> run 1) in
  let par_s = wall (fun () -> run jobs) in
  let speedup = seq_s /. Float.max 1e-9 par_s in
  Format.printf "  %-28s seq %7.2f s   par(%d jobs) %7.2f s   speedup %.2fx@."
    name seq_s jobs par_s speedup;
  timing_records :=
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        (* machine-shape stamp: [--check] refuses to compare records made
           with a different core count or pool width *)
        ("cores",
         Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ("jobs", Obs.Json.Num (float_of_int jobs));
        ("seq_s", Obs.Json.Num seq_s);
        ("par_s", Obs.Json.Num par_s);
        ("speedup", Obs.Json.Num speedup);
      ]
    :: !timing_records

let timing_parallel () =
  section "Timing - sequential vs parallel (domain pool)";
  let jobs = max 2 (Par.Pool.default_jobs ()) in
  Format.printf
    "pool: %d jobs (LOSAC_JOBS to override); %d core(s) recommended by the \
     runtime@."
    jobs
    (Domain.recommended_domain_count ());
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  compare_seq_par ~name:"monte carlo (n=200)" ~jobs (fun j ->
    Comdiac.Montecarlo.run ~n:200 ~ctx:(Core.Ctx.make ~jobs:j proc) ~kind
      ~spec amp);
  let temperatures =
    List.map Technology.Corner.celsius [ -40.0; 0.0; 27.0; 55.0; 85.0 ]
  in
  compare_seq_par ~name:"corner sweep (25 points)" ~jobs (fun j ->
    Comdiac.Robustness.run ~corners:Technology.Corner.all ~temperatures
      ~ctx:(Core.Ctx.make ~jobs:j proc) ~kind ~spec amp);
  compare_seq_par ~name:"flow cases (table 1)" ~jobs (fun j ->
    Core.Flow.run_all ~ctx:(Core.Ctx.make ~jobs:j proc) ~kind ~spec ());
  Format.printf
    "@.pool after warm-up: %d worker domain(s), queue depth %d@."
    (Par.Pool.num_workers ()) (Par.Pool.queue_depth ());
  Format.printf
    "determinism: the parallel runs above return bit-identical results \
     to the sequential ones (per-sample SplitMix64 streams; ordered \
     chunk reassembly).@."

(* ------------------------------------------------------------------ *)
(* Scaling - per-core efficiency sweep                                 *)
(* ------------------------------------------------------------------ *)

(* per-workload scaling records accumulated by [scaling], dumped by
   [--scaling-json FILE] *)
let scaling_records : Obs.Json.t list ref = ref []
let scaling_jobs_swept = ref 1

(* Sweep jobs = 1 .. max(2, cores) over the three timing workloads.  The
   sequential reference is the jobs=1 inline fast path; the jobs=1
   *point* is measured with the fast path disabled ([with_pool_forced])
   so the record captures the honest single-job pool overhead — the
   number the gate watches so the old 0.37x regression cannot silently
   return. *)
let scaling () =
  section "Scaling - per-core speedup sweep (jobs = 1 .. cores)";
  let cores = Domain.recommended_domain_count () in
  let max_jobs = max 2 cores in
  scaling_jobs_swept := max_jobs;
  Format.printf "sweeping jobs 1..%d on %d recommended core(s)@." max_jobs
    cores;
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  let temperatures =
    List.map Technology.Corner.celsius [ -40.0; 0.0; 27.0; 55.0; 85.0 ]
  in
  let workloads =
    [
      ( "monte carlo (n=200)",
        fun j ->
          ignore
            (Comdiac.Montecarlo.run ~n:200 ~ctx:(Core.Ctx.make ~jobs:j proc)
               ~kind ~spec amp) );
      ( "corner sweep (25 points)",
        fun j ->
          ignore
            (Comdiac.Robustness.run ~corners:Technology.Corner.all
               ~temperatures ~ctx:(Core.Ctx.make ~jobs:j proc) ~kind ~spec amp)
      );
      ( "flow cases (table 1)",
        fun j ->
          ignore (Core.Flow.run_all ~ctx:(Core.Ctx.make ~jobs:j proc) ~kind
                    ~spec ()) );
    ]
  in
  List.iter
    (fun (name, run) ->
      let wall f =
        (* cold caches for every measurement, as in [timing] *)
        Cache.Memo.clear_all ();
        let t0 = Obs.Clock.monotonic_s () in
        f ();
        Obs.Clock.monotonic_s () -. t0
      in
      let seq_s = wall (fun () -> run 1) in
      let forced_s =
        wall (fun () -> Par.Pool.with_pool_forced (fun () -> run 1))
      in
      let overhead = (forced_s -. seq_s) /. Float.max 1e-9 seq_s in
      Format.printf "  %-28s seq %7.2f s   jobs=1 pool overhead %+5.1f%%@."
        name seq_s (100.0 *. overhead);
      let points =
        List.init max_jobs (fun i ->
          let j = i + 1 in
          let w = if j = 1 then forced_s else wall (fun () -> run j) in
          let speedup = seq_s /. Float.max 1e-9 w in
          Format.printf "  %-28s jobs %2d  %7.2f s   speedup %.2fx@." name j w
            speedup;
          Obs.Json.Obj
            [
              ("jobs", Obs.Json.Num (float_of_int j));
              ("wall_s", Obs.Json.Num w);
              ("speedup", Obs.Json.Num speedup);
            ])
      in
      scaling_records :=
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str name);
            ("seq_s", Obs.Json.Num seq_s);
            ("jobs1_pool_overhead_frac", Obs.Json.Num overhead);
            ("points", Obs.Json.Arr points);
          ]
        :: !scaling_records)
    workloads

let scaling_doc () =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "losac.bench.scaling/1");
      (* machine-shape stamp: [--check] refuses cross-machine comparison *)
      ("cores",
       Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("jobs", Obs.Json.Num (float_of_int !scaling_jobs_swept));
      ("experiments", Obs.Json.Arr (List.rev !scaling_records));
    ]

(* folded-cascode OTA testbench shared by [timing] and [kernels]: the
   sized amplifier under its intended bias, with supply and differential
   AC inputs *)
let solver_testbench () =
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  let circuit =
    let c = Netlist.Circuit.create ~title:"tb" in
    let c = Comdiac.Amp.add_to amp c in
    let c =
      Netlist.Circuit.add_vsource c ~name:"dd" ~p:"vdd" ~n:"0"
        (Netlist.Element.dc_source spec.Comdiac.Spec.vdd)
    in
    let vcm = Comdiac.Spec.input_common_mode spec in
    let c =
      Netlist.Circuit.add_vsource c ~name:"ip" ~p:"inp" ~n:"0"
        (Netlist.Element.ac_source ~dc:vcm 0.5)
    in
    Netlist.Circuit.add_vsource c ~name:"in" ~p:"inn" ~n:"0"
      (Netlist.Element.ac_source ~dc:vcm (-0.5))
  in
  let guess =
    Comdiac.Amp.guess_fn amp ~extra:[ ("vdd", spec.Comdiac.Spec.vdd) ]
  in
  (design, circuit, guess)

let timing () =
  section "Timing - tool performance (paper bound: sizing < 2 minutes)";
  let design, bench_circuit, guess = solver_testbench () in
  let dc = Sim.Dcop.solve ~guess ~proc ~kind bench_circuit in
  let net = Sim.Acs.prepare dc in
  (* micro-benchmarks run with the memo caches off so they keep measuring
     the cost of the actual computation; the caches get their own [cache]
     experiment *)
  Cache.Config.with_enabled false @@ fun () ->
  bechamel_run "COMDIAC sizing (one pass)" (fun () ->
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold);
  bechamel_run "CAIRO parasitic-calculation call" (fun () ->
    Core.Layout_bridge.call_layout ~mode:Cairo_layout.Plan.Parasitic_only proc
      design Core.Layout_bridge.default_options);
  bechamel_run "CAIRO generation call" (fun () ->
    Core.Layout_bridge.call_layout ~mode:Cairo_layout.Plan.Generation proc
      design Core.Layout_bridge.default_options);
  bechamel_run "DC operating point (Newton)" (fun () ->
    Sim.Dcop.solve ~guess ~proc ~kind bench_circuit);
  bechamel_run "AC solve at one frequency" (fun () ->
    Sim.Acs.transfer net ~freq:1e6 ~out:"out");
  bechamel_run "transistor motif generation" (fun () ->
    Cairo_layout.Motif.generate proc
      {
        Cairo_layout.Motif.dev =
          Device.Mos.make ~name:"m" ~mtype:Technology.Electrical.Nmos ~w:100e-6
            ~l:1.2e-6
            ~style:{ Device.Folding.nf = 8; drain_internal = true } ();
        d_net = "d"; g_net = "g"; s_net = "s"; b_net = "b"; i_drain = 1e-4;
      });
  let r4 = List.nth (Lazy.force flow_results) 3 in
  Format.printf
    "@.full case-4 synthesis (loop + generation + both verifications): %.2f s \
     -- paper bound %.0f s@."
    r4.Core.Flow.elapsed Paper_data.paper_sizing_time_bound_s;
  (* the same synthesis once more with telemetry on: where the time and
     the Newton iterations actually go (the bechamel numbers above ran
     with telemetry disabled, its default) *)
  Obs.Config.with_enabled true (fun () ->
    Obs.Trace.reset ();
    Obs.Metrics.reset ();
    let r = Core.Flow.run ~proc ~kind ~spec Core.Flow.Case4 in
    Format.printf
      "@.telemetry for one instrumented case-4 synthesis (%.2f s):@.%s"
      r.Core.Flow.elapsed
      (Obs.Reporter.metrics_table ());
    Format.printf "@.span roll-up:@.%s" (Obs.Reporter.spans_table ());
    Obs.Trace.reset ();
    Obs.Metrics.reset ());
  timing_parallel ()

(* ------------------------------------------------------------------ *)
(* Statistics - the paper's reliability verification interface          *)
(* ------------------------------------------------------------------ *)

let statistics () =
  section
    "Statistics - mismatch Monte Carlo and corner/temperature verification";
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  let mc = Comdiac.Montecarlo.run ~n:40 ~proc ~kind ~spec amp in
  Format.printf "%a@.@." Comdiac.Montecarlo.pp mc;
  let frozen = Comdiac.Robustness.run ~proc ~kind ~spec amp in
  Format.printf "frozen bias voltages:@.%a@.@." Comdiac.Robustness.pp frozen;
  let rebias p = Comdiac.Folded_cascode.rebias ~proc:p ~kind ~spec design in
  let tracking = Comdiac.Robustness.run ~rebias ~proc ~kind ~spec amp in
  Format.printf "tracking bias generator:@.%a@.@." Comdiac.Robustness.pp
    tracking;
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
  Format.printf "PSRR %.1f dB@." (Sim.Measure.db (Comdiac.Testbench.psrr tb));
  let lo, hi = Comdiac.Testbench.common_mode_range tb in
  let slo, shi = spec.Comdiac.Spec.icmr in
  Format.printf
    "measured input common-mode range [%.2f, %.2f] V (spec [%.2f, %.2f] V;      the negative spec bound needs inputs below the rail, outside this      single-supply bench)@."
    lo hi slo shi

(* ------------------------------------------------------------------ *)
(* Cache - cold vs warm wall-clock, hit rates, bit-identity, LUT        *)
(* ------------------------------------------------------------------ *)

(* records dumped by [--cache-json FILE] (CI keeps it as BENCH_cache.json) *)
let cache_records : Obs.Json.t list ref = ref []
let lut_record : Obs.Json.t option ref = ref None

(* Warm-run hit rate of the memo registry: hits gained between two
   snapshots over lookups gained. *)
let registry_delta_hit_rate before after =
  let totals stats =
    List.fold_left
      (fun (h, l) (s : Cache.Memo.stats) ->
        (h + s.Cache.Memo.hits, l + s.Cache.Memo.hits + s.Cache.Memo.misses))
      (0, 0) stats
  in
  let h0, l0 = totals before and h1, l1 = totals after in
  if l1 = l0 then 0.0 else float_of_int (h1 - h0) /. float_of_int (l1 - l0)

let cache_workload ~name ~strip run =
  let wall f =
    let t0 = Obs.Clock.monotonic_s () in
    let v = f () in
    (v, Obs.Clock.monotonic_s () -. t0)
  in
  Cache.Memo.clear_all ();
  let cold, cold_s = wall run in
  let before_warm = Cache.Memo.registry () in
  let warm, warm_s = wall run in
  let warm_hit_rate = registry_delta_hit_rate before_warm (Cache.Memo.registry ()) in
  let uncached, uncached_s =
    Cache.Config.with_enabled false (fun () -> wall run)
  in
  let identical_warm = compare (strip cold) (strip warm) = 0 in
  let identical_nocache = compare (strip cold) (strip uncached) = 0 in
  let speedup = uncached_s /. Float.max 1e-9 warm_s in
  Format.printf
    "  %-28s cold %6.2f s   warm %6.2f s   uncached %6.2f s   warm hits \
     %5.1f%%   speedup %6.2fx   identical %b/%b@."
    name cold_s warm_s uncached_s (100.0 *. warm_hit_rate) speedup
    identical_warm identical_nocache;
  cache_records :=
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str name);
        ("cold_s", Obs.Json.Num cold_s);
        ("warm_s", Obs.Json.Num warm_s);
        ("uncached_s", Obs.Json.Num uncached_s);
        ("warm_hit_rate", Obs.Json.Num warm_hit_rate);
        ("warm_speedup", Obs.Json.Num speedup);
        ("identical_warm", Obs.Json.Bool identical_warm);
        ("identical_nocache", Obs.Json.Bool identical_nocache);
      ]
    :: !cache_records

let lut_bench () =
  let dev =
    Device.Mos.make ~name:"m" ~mtype:Technology.Electrical.Nmos ~w:60e-6
      ~l:1.2e-6 ()
  in
  let biases =
    List.concat_map
      (fun vgs ->
        List.map
          (fun vds -> { Device.Model.vgs; vds; vbs = 0.0 })
          [ 0.8; 1.2; 1.65; 2.4 ])
      [ 0.9; 1.0; 1.1; 1.3; 1.6; 2.0 ]
  in
  let t0 = Obs.Clock.monotonic_s () in
  let table = Device.Lut.table proc kind Technology.Electrical.Nmos in
  let build_s = Obs.Clock.monotonic_s () -. t0 in
  let nx, ny = Cache.Lut.grid_size table in
  let p = Device.Mos.params proc dev in
  let rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs b) in
  let max_err field =
    List.fold_left
      (fun acc bias ->
        let exact =
          Device.Model.evaluate_exact kind p ~w:dev.Device.Mos.w
            ~l:dev.Device.Mos.l bias
        in
        let approx = Device.Lut.eval proc kind dev bias in
        Float.max acc (rel (field approx) (field exact)))
      0.0 biases
  in
  let err_ids = max_err (fun e -> e.Device.Model.ids) in
  let err_gm = max_err (fun e -> e.Device.Model.gm) in
  let reps = 20_000 in
  let time_per_eval f =
    let t0 = Obs.Clock.monotonic_s () in
    for _ = 1 to reps do
      List.iter (fun b -> ignore (f b)) biases
    done;
    (Obs.Clock.monotonic_s () -. t0)
    /. float_of_int (reps * List.length biases) *. 1e9
  in
  let exact_ns =
    time_per_eval (fun b ->
      Device.Model.evaluate_exact kind p ~w:dev.Device.Mos.w
        ~l:dev.Device.Mos.l b)
  in
  let lut_ns = time_per_eval (fun b -> Device.Lut.eval proc kind dev b) in
  Format.printf
    "  LUT (opt-in, approximate)    %dx%d grid built in %.3f s   exact \
     %.0f ns/eval   lut %.0f ns/eval (%.1fx)   max rel err: ids %.2e  gm \
     %.2e (saturation)@."
    nx ny build_s exact_ns lut_ns
    (exact_ns /. Float.max 1e-9 lut_ns)
    err_ids err_gm;
  lut_record :=
    Some
      (Obs.Json.Obj
         [
           ("grid", Obs.Json.Arr
              [ Obs.Json.Num (float_of_int nx); Obs.Json.Num (float_of_int ny) ]);
           ("build_s", Obs.Json.Num build_s);
           ("exact_ns_per_eval", Obs.Json.Num exact_ns);
           ("lut_ns_per_eval", Obs.Json.Num lut_ns);
           ("max_rel_err_ids", Obs.Json.Num err_ids);
           ("max_rel_err_gm", Obs.Json.Num err_gm);
         ])

let cache_bench () =
  section "Cache - cold vs warm wall-clock, hit rates and bit-identity";
  let ctx = Core.Ctx.make proc in
  let design =
    Comdiac.Folded_cascode.size ~proc ~kind ~spec
      ~parasitics:Comdiac.Parasitics.single_fold
  in
  let amp = design.Comdiac.Folded_cascode.amp in
  (* identical statistics are the acceptance criterion, so strip nothing
     from the MC / corner results; flow results carry wall-clock, which
     legitimately differs between runs *)
  cache_workload ~name:"monte carlo (n=200)" ~strip:Fun.id (fun () ->
    Comdiac.Montecarlo.run ~n:200 ~ctx ~kind ~spec amp);
  let temperatures =
    List.map Technology.Corner.celsius [ -40.0; 0.0; 27.0; 55.0; 85.0 ]
  in
  cache_workload ~name:"corner sweep (25 points)" ~strip:Fun.id (fun () ->
    Comdiac.Robustness.run ~corners:Technology.Corner.all ~temperatures ~ctx
      ~kind ~spec amp);
  cache_workload ~name:"flow cases (table 1)"
    ~strip:
      (List.map (fun (r : Core.Flow.result) ->
         { r with Core.Flow.elapsed = 0.0 }))
    (fun () -> Core.Flow.run_all ~ctx ~kind ~spec ());
  lut_bench ();
  Format.printf "@.cache state after the warm runs:@.";
  List.iter
    (fun (s : Cache.Memo.stats) ->
      Format.printf
        "  %-22s %8d hits %8d misses %6d evictions  %5.1f%% hit rate  \
         %d/%d entries@."
        s.Cache.Memo.name s.Cache.Memo.hits s.Cache.Memo.misses
        s.Cache.Memo.evictions
        (100.0 *. Cache.Memo.hit_rate s)
        s.Cache.Memo.entries s.Cache.Memo.capacity)
    (Cache.Memo.registry ())

let cache_doc () =
  let registry =
    List.map
      (fun (s : Cache.Memo.stats) ->
        Obs.Json.Obj
          [
            ("name", Obs.Json.Str s.Cache.Memo.name);
            ("hits", Obs.Json.Num (float_of_int s.Cache.Memo.hits));
            ("misses", Obs.Json.Num (float_of_int s.Cache.Memo.misses));
            ("evictions", Obs.Json.Num (float_of_int s.Cache.Memo.evictions));
            ("entries", Obs.Json.Num (float_of_int s.Cache.Memo.entries));
            ("capacity", Obs.Json.Num (float_of_int s.Cache.Memo.capacity));
            ("hit_rate", Obs.Json.Num (Cache.Memo.hit_rate s));
          ])
      (Cache.Memo.registry ())
  in
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.Str "losac.bench.cache/1");
       ("workloads", Obs.Json.Arr (List.rev !cache_records));
       ("caches", Obs.Json.Arr registry);
     ]
     @ match !lut_record with None -> [] | Some l -> [ ("lut", l) ])

let write_doc ~what doc path =
  Out_channel.with_open_text path (fun oc ->
    output_string oc (Obs.Json.to_string doc);
    output_char oc '\n');
  Format.printf "wrote %s records to %s@." what path

let write_cache_json path = write_doc ~what:"cache" (cache_doc ()) path

(* ------------------------------------------------------------------ *)
(* Kernels - unboxed in-place LU vs the boxed functor reference        *)
(* ------------------------------------------------------------------ *)

(* top-level sections dumped by [--kernels-json FILE] (CI keeps it as
   BENCH_kernels.json) *)
let kernel_records : (string * Obs.Json.t) list ref = ref []

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* median-of-batch-means per-call latency: the mean inside a batch keeps
   the GC work a backend's own allocation causes (a real, recurring cost);
   the median across batches discards one-off scheduler interference *)
let time_per ?(batches = 5) ~reps f =
  ignore (f ());
  let means =
    Array.init batches (fun _ ->
      let t0 = Obs.Clock.monotonic_s () in
      for _ = 1 to reps do
        ignore (f ())
      done;
      (Obs.Clock.monotonic_s () -. t0) /. float_of_int reps)
  in
  Array.sort compare means;
  means.(batches / 2)

let minor_words_per ~reps f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let kernels_lu () =
  Format.printf "raw LU factor+solve, random diagonally dominant systems:@.";
  let module R = Linalg.Real in
  let module Df = Linalg.Dense_f in
  let recs =
    List.map
      (fun n ->
        let st = Random.State.make [| 0xC0FFEE; n |] in
        let rnd () = Random.State.float st 2.0 -. 1.0 in
        let rows =
          Array.init n (fun i ->
            Array.init n (fun j ->
              rnd () +. if i = j then float_of_int n else 0.0))
        in
        let b = Array.init n (fun _ -> rnd ()) in
        let boxed = R.of_arrays (Array.map Array.copy rows) in
        let template = Df.of_arrays rows in
        let ws = Linalg.Ws.real n in
        let kernel_solve () =
          Df.blit ~src:template ~dst:ws.Linalg.Ws.jac;
          Array.blit b 0 ws.Linalg.Ws.rhs 0 n;
          Df.lu_factor_in_place ws.Linalg.Ws.jac ~piv:ws.Linalg.Ws.piv;
          Df.lu_solve_into ws.Linalg.Ws.jac ~piv:ws.Linalg.Ws.piv
            ~b:ws.Linalg.Ws.rhs ~x:ws.Linalg.Ws.delta
        in
        let functor_solve () = R.solve boxed b in
        let xf = functor_solve () in
        kernel_solve ();
        let identical = ref true in
        for i = 0 to n - 1 do
          if not (bits_eq xf.(i) ws.Linalg.Ws.delta.(i)) then identical := false
        done;
        let reps = max 500 (2_000_000 / (n * n)) in
        let kernel_s = time_per ~reps kernel_solve in
        let functor_s = time_per ~reps functor_solve in
        let kernel_w = minor_words_per ~reps kernel_solve in
        let functor_w = minor_words_per ~reps functor_solve in
        let speedup = functor_s /. Float.max 1e-12 kernel_s in
        Format.printf
          "  n=%-3d functor %8.2f us/solve  kernel %8.2f us/solve  speedup \
           %6.2fx   alloc %8.0f -> %3.0f words/solve   identical %b@."
          n (functor_s *. 1e6) (kernel_s *. 1e6) speedup functor_w kernel_w
          !identical;
        Obs.Json.Obj
          [
            ("n", Obs.Json.Num (float_of_int n));
            ("functor_s_per_solve", Obs.Json.Num functor_s);
            ("kernel_s_per_solve", Obs.Json.Num kernel_s);
            ("speedup", Obs.Json.Num speedup);
            ("functor_words_per_solve", Obs.Json.Num functor_w);
            ("kernel_words_per_solve", Obs.Json.Num kernel_w);
            ("identical_bits", Obs.Json.Bool !identical);
          ])
      [ 8; 16; 32; 64 ]
  in
  kernel_records := ("lu", Obs.Json.Arr recs) :: !kernel_records

let kernels_sim () =
  let _, bench_circuit, guess = solver_testbench () in
  let solve backend () =
    Sim.Dcop.solve ~backend ~guess ~proc ~kind bench_circuit
  in
  let dc_k = solve Sim.Stamps.Kernel () in
  let dc_r = solve Sim.Stamps.Reference () in
  let nodes = Sim.Indexing.node_names (Sim.Dcop.indexing dc_k) in
  let dc_identical =
    Sim.Dcop.iterations dc_k = Sim.Dcop.iterations dc_r
    && Array.for_all
         (fun nd ->
           bits_eq (Sim.Dcop.voltage dc_k nd) (Sim.Dcop.voltage dc_r nd))
         nodes
  in
  let reps = 100 in
  let kernel_s = time_per ~reps (solve Sim.Stamps.Kernel) in
  let ref_s = time_per ~reps (solve Sim.Stamps.Reference) in
  let kernel_w = minor_words_per ~reps:5 (solve Sim.Stamps.Kernel) in
  let ref_w = minor_words_per ~reps:5 (solve Sim.Stamps.Reference) in
  let dc_speedup = ref_s /. Float.max 1e-12 kernel_s in
  Format.printf
    "@.full Newton DC operating point (folded-cascode OTA, %d unknowns, %d \
     iterations):@.  functor %8.2f ms  kernel %8.2f ms  speedup %.2fx   \
     alloc %.2e -> %.2e words/solve   identical %b@."
    (Array.length nodes)
    (Sim.Dcop.iterations dc_k)
    (ref_s *. 1e3) (kernel_s *. 1e3) dc_speedup ref_w kernel_w dc_identical;
  kernel_records :=
    ( "dcop",
      Obs.Json.Obj
        [
          ("unknowns", Obs.Json.Num (float_of_int (Array.length nodes)));
          ("newton_iterations",
           Obs.Json.Num (float_of_int (Sim.Dcop.iterations dc_k)));
          ("functor_s_per_solve", Obs.Json.Num ref_s);
          ("kernel_s_per_solve", Obs.Json.Num kernel_s);
          ("speedup", Obs.Json.Num dc_speedup);
          ("functor_words_per_solve", Obs.Json.Num ref_w);
          ("kernel_words_per_solve", Obs.Json.Num kernel_w);
          ("identical_bits", Obs.Json.Bool dc_identical);
        ] )
    :: !kernel_records;
  let net = Sim.Acs.prepare dc_k in
  let freqs =
    (* 50 log-spaced points, 1 Hz .. 10 GHz *)
    Array.init 50 (fun i -> 10.0 ** (float_of_int i *. (10.0 /. 49.0)))
  in
  let sweep backend () =
    Array.map
      (fun freq -> Sim.Acs.transfer ~backend net ~freq ~out:"out")
      freqs
  in
  let sweep_k = sweep Sim.Stamps.Kernel () in
  let sweep_r = sweep Sim.Stamps.Reference () in
  let ac_identical =
    Array.for_all2
      (fun (a : Complex.t) (b : Complex.t) ->
        bits_eq a.Complex.re b.Complex.re && bits_eq a.Complex.im b.Complex.im)
      sweep_k sweep_r
  in
  let reps = 40 in
  let kernel_s = time_per ~reps (sweep Sim.Stamps.Kernel) in
  let ref_s = time_per ~reps (sweep Sim.Stamps.Reference) in
  let kernel_w = minor_words_per ~reps:10 (sweep Sim.Stamps.Kernel) in
  let ref_w = minor_words_per ~reps:10 (sweep Sim.Stamps.Reference) in
  let ac_speedup = ref_s /. Float.max 1e-12 kernel_s in
  Format.printf
    "@.50-point AC sweep (1 Hz - 10 GHz, same OTA):@.  functor %8.2f ms  \
     kernel %8.2f ms  speedup %.2fx   alloc %.2e -> %.2e words/sweep   \
     identical %b@."
    (ref_s *. 1e3) (kernel_s *. 1e3) ac_speedup ref_w kernel_w ac_identical;
  kernel_records :=
    ( "ac_sweep",
      Obs.Json.Obj
        [
          ("points", Obs.Json.Num (float_of_int (Array.length freqs)));
          ("functor_s_per_sweep", Obs.Json.Num ref_s);
          ("kernel_s_per_sweep", Obs.Json.Num kernel_s);
          ("speedup", Obs.Json.Num ac_speedup);
          ("functor_words_per_sweep", Obs.Json.Num ref_w);
          ("kernel_words_per_sweep", Obs.Json.Num kernel_w);
          ("identical_bits", Obs.Json.Bool ac_identical);
        ] )
    :: !kernel_records

let kernels () =
  section "Kernels - unboxed in-place LU vs boxed functor reference";
  (* caches off: repeated identical solves must measure the solver, not
     the memo layer (which gets its own [cache] experiment) *)
  Cache.Config.with_enabled false @@ fun () ->
  kernels_lu ();
  kernels_sim ();
  Format.printf
    "@.bit-identity here is exact (Int64.bits_of_float); the kernel path is \
     the default backend everywhere, the functor remains as reference.@."

let kernels_doc () =
  Obs.Json.Obj
    (("schema", Obs.Json.Str "losac.bench.kernels/1")
     :: List.rev !kernel_records)

let write_kernels_json path = write_doc ~what:"kernel" (kernels_doc ()) path

(* ------------------------------------------------------------------ *)
(* Sparse - CSR symbolic/numeric split vs the dense kernel             *)
(* ------------------------------------------------------------------ *)

(* top-level sections dumped by [--sparse-json FILE] (CI keeps it as
   BENCH_sparse.json) *)
let sparse_records : (string * Obs.Json.t) list ref = ref []

(* RC ladder: [sections] series resistors with a shunt capacitor per
   internal node, driven by a voltage source — the canonical banded
   workload (unknowns = sections + 2) *)
let rc_ladder sections =
  let node i = Printf.sprintf "s%d" i in
  let c = Netlist.Circuit.create ~title:"rc ladder" in
  let c =
    Netlist.Circuit.add_vsource c ~name:"in" ~p:(node 0) ~n:"0"
      (Netlist.Element.dc_source 1.0)
  in
  let rec go c i =
    if i >= sections then c
    else
      let c =
        Netlist.Circuit.add_resistor c ~name:(Printf.sprintf "r%d" i)
          ~p:(node i) ~n:(node (i + 1)) ~r:1e3
      in
      let c =
        Netlist.Circuit.add_capacitor c ~name:(Printf.sprintf "c%d" i)
          ~p:(node (i + 1)) ~n:"0" ~c:1e-12
      in
      go c (i + 1)
  in
  (go c 0, fun (_ : string) -> Some 1.0)

(* [copies] independent instances of the folded-cascode testbench, nodes
   and names suffixed per copy — the "many cells on one die" workload
   whose Jacobian is block-diagonal with dense 14-unknown blocks *)
let ota_array (base, base_guess) copies =
  let module El = Netlist.Element in
  let remap sfx el =
    let rn n = if n = El.ground then n else n ^ "." ^ sfx in
    match el with
    | El.Resistor { name; p; n; r } ->
      El.Resistor { name = name ^ "." ^ sfx; p = rn p; n = rn n; r }
    | El.Capacitor { name; p; n; c } ->
      El.Capacitor { name = name ^ "." ^ sfx; p = rn p; n = rn n; c }
    | El.Isource { name; p; n; i } ->
      El.Isource { name = name ^ "." ^ sfx; p = rn p; n = rn n; i }
    | El.Vsource { name; p; n; v } ->
      El.Vsource { name = name ^ "." ^ sfx; p = rn p; n = rn n; v }
    | El.Mos { dev; d; g; s; b } ->
      El.Mos
        {
          dev = { dev with Device.Mos.name = dev.Device.Mos.name ^ "." ^ sfx };
          d = rn d;
          g = rn g;
          s = rn s;
          b = rn b;
        }
  in
  let c = ref (Netlist.Circuit.create ~title:"ota array") in
  for k = 1 to copies do
    let sfx = string_of_int k in
    List.iter
      (fun el -> c := Netlist.Circuit.add !c (remap sfx el))
      (Netlist.Circuit.elements base)
  done;
  let guess name =
    match String.rindex_opt name '.' with
    | Some i -> base_guess (String.sub name 0 i)
    | None -> None
  in
  (!c, guess)

let time_once f =
  let t0 = Obs.Clock.monotonic_s () in
  let v = f () in
  (v, Obs.Clock.monotonic_s () -. t0)

(* One workload size: stamp the DC Jacobian at the intended bias once
   into the dense workspace and the CSR slot array, then compare a dense
   blit+factor+solve against a sparse refactor+solve over the frozen
   symbolic analysis (reported separately, as its cost amortises over a
   whole Newton/transient/AC run). *)
let sparse_point ~label circuit guess =
  let idx = Sim.Indexing.build circuit in
  let n = Sim.Indexing.size idx in
  let prog = Sim.Stamps.compile proc idx circuit in
  let x = Array.make n 0.0 in
  Array.iteri
    (fun i nm -> match guess nm with Some v -> x.(i) <- v | None -> ())
    (Sim.Indexing.node_names idx);
  (* the kernel system stamps into the domain's workspace [ws] *)
  let dsys = Sim.Stamps.system Sim.Stamps.Kernel idx prog in
  Sim.Stamps.run kind dsys (Sim.Stamps.iterate dsys x) ~gmin:1e-12 ~alpha:1.0;
  let ws = Linalg.Ws.real n in
  let template = Linalg.Dense_f.create n n in
  Linalg.Dense_f.blit ~src:ws.Linalg.Ws.jac ~dst:template;
  let pat = Sim.Stamps.pattern idx prog in
  (* stamped through a natural-order system, so the min-degree analysis
     timed below is still uncached *)
  let ssys = Sim.Stamps.system (Sim.Stamps.Sparse Linalg.Sparse.Natural) idx prog in
  let sctx = Sim.Stamps.iterate ssys x in
  Sim.Stamps.run kind ssys sctx ~gmin:1e-12 ~alpha:1.0;
  let sm =
    match sctx.Sim.Stamps.jac with
    | Sim.Stamps.Csr sm -> sm
    | Sim.Stamps.Unboxed _ | Sim.Stamps.Boxed _ -> assert false
  in
  (* symbolic analyses: the first build is the real (uncached) cost *)
  let sym_md, symbolic_s =
    time_once (fun () ->
      Linalg.Sparse.symbolic Linalg.Sparse.Min_degree pat)
  in
  let sym_nat, _ =
    time_once (fun () -> Linalg.Sparse.symbolic Linalg.Sparse.Natural pat)
  in
  let fact_md = Linalg.Sparse.Real.create sym_md in
  let fact_nat = Linalg.Sparse.Real.create sym_nat in
  let b = Array.init n (fun i -> Float.cos (float_of_int (i + 1))) in
  let xs = Array.make n 0.0 and xn = Array.make n 0.0 in
  let dense_solve () =
    Linalg.Dense_f.blit ~src:template ~dst:ws.Linalg.Ws.jac;
    Array.blit b 0 ws.Linalg.Ws.rhs 0 n;
    Linalg.Dense_f.lu_factor_in_place ws.Linalg.Ws.jac ~piv:ws.Linalg.Ws.piv;
    Linalg.Dense_f.lu_solve_into ws.Linalg.Ws.jac ~piv:ws.Linalg.Ws.piv
      ~b:ws.Linalg.Ws.rhs ~x:ws.Linalg.Ws.delta
  in
  let sparse_solve () =
    Linalg.Sparse.Real.refactor fact_md ~vals:sm.Sim.Stamps.svals;
    Linalg.Sparse.Real.solve_into fact_md ~b ~x:xs
  in
  let natural_solve () =
    Linalg.Sparse.Real.refactor fact_nat ~vals:sm.Sim.Stamps.svals;
    Linalg.Sparse.Real.solve_into fact_nat ~b ~x:xn
  in
  dense_solve ();
  natural_solve ();
  let identical = ref true in
  for i = 0 to n - 1 do
    if not (bits_eq ws.Linalg.Ws.delta.(i) xn.(i)) then identical := false
  done;
  let fill_md = Linalg.Sparse.fill_nnz sym_md in
  (* pick reps so one timing batch costs ~20 ms whatever the solver *)
  let calibrated f =
    let _, once = time_once f in
    max 2 (min 20_000 (int_of_float (0.02 /. Float.max 1e-7 once)))
  in
  let reps_d = calibrated dense_solve in
  let dense_s = time_per ~reps:reps_d dense_solve in
  let md_s = time_per ~reps:(calibrated sparse_solve) sparse_solve in
  let nat_s = time_per ~reps:(calibrated natural_solve) natural_solve in
  let dense_w = minor_words_per ~reps:reps_d dense_solve in
  let md_w = minor_words_per ~reps:(calibrated sparse_solve) sparse_solve in
  let speedup = dense_s /. Float.max 1e-12 md_s in
  Format.printf
    "  %-10s n=%-5d nnz %6d fill %6d  dense %9.2f us  sparse %8.2f us \
     (natural %8.2f us)  speedup %6.2fx  symbolic %7.1f us  alloc %6.0f -> \
     %3.0f words  identical %b@."
    label n (Linalg.Sparse.nnz pat) fill_md (dense_s *. 1e6) (md_s *. 1e6)
    (nat_s *. 1e6) speedup (symbolic_s *. 1e6) dense_w md_w !identical;
  ( speedup >= 1.0,
    !identical,
    Obs.Json.Obj
      [
        ("n", Obs.Json.Num (float_of_int n));
        ("nnz", Obs.Json.Num (float_of_int (Linalg.Sparse.nnz pat)));
        ("fill_nnz", Obs.Json.Num (float_of_int fill_md));
        ("dense_s_per_solve", Obs.Json.Num dense_s);
        ("sparse_s_per_solve", Obs.Json.Num md_s);
        ("sparse_natural_s_per_solve", Obs.Json.Num nat_s);
        ("symbolic_s", Obs.Json.Num symbolic_s);
        ("speedup", Obs.Json.Num speedup);
        ("dense_words_per_solve", Obs.Json.Num dense_w);
        ("sparse_words_per_solve", Obs.Json.Num md_w);
        ("natural_identical_bits", Obs.Json.Bool !identical);
      ] )

let sparse_sizes = [ 16; 64; 256; 1024 ]

let sparse_workload ~label make =
  Format.printf "@.%s:@." label;
  let recs =
    List.map
      (fun target ->
        let circuit, guess = make target in
        sparse_point ~label circuit guess)
      sparse_sizes
  in
  let crossover =
    List.fold_left2
      (fun acc target (wins, _, _) ->
        match acc with Some _ -> acc | None -> if wins then Some target else None)
      None sparse_sizes recs
  in
  (match crossover with
   | Some t -> Format.printf "  -> sparse beats dense from n ~ %d up@." t
   | None -> Format.printf "  -> dense still ahead at every measured size@.");
  let all_identical = List.for_all (fun (_, ok, _) -> ok) recs in
  if not all_identical then
    failwith (label ^ ": sparse-natural diverged from the dense kernel");
  sparse_records :=
    ( label,
      Obs.Json.Obj
        [
          ("points", Obs.Json.Arr (List.map (fun (_, _, j) -> j) recs));
          ("crossover_n",
           match crossover with
           | Some t -> Obs.Json.Num (float_of_int t)
           | None -> Obs.Json.Null);
        ] )
    :: !sparse_records

let strip_flow_elapsed (r : Core.Flow.result) =
  { r with Core.Flow.elapsed = 0.0 }

(* The headline identity claim: the whole Table-1 flow (sizing, layout
   loop, full performance extraction) under [Sparse Natural] returns the
   same results as under the dense kernel, field for field.  Caches off so
   the second run cannot answer from the first run's memos. *)
let sparse_flow_identity () =
  let flow_under backend =
    Sim.Stamps.with_default_backend backend @@ fun () ->
    Cache.Config.with_enabled false @@ fun () ->
    List.map strip_flow_elapsed (Core.Flow.run_all ~proc ~kind ~spec ())
  in
  let k, kernel_s = time_once (fun () -> flow_under Sim.Stamps.Kernel) in
  let s, sparse_s =
    time_once (fun () ->
      flow_under (Sim.Stamps.Sparse Linalg.Sparse.Min_degree))
  in
  let nat =
    flow_under (Sim.Stamps.Sparse Linalg.Sparse.Natural)
  in
  let identical = compare k nat = 0 in
  Format.printf
    "@.full Table-1 flow (4 cases): kernel %.1f s, sparse %.1f s; \
     sparse-natural identical to kernel: %b@."
    kernel_s sparse_s identical;
  ignore s;
  if not identical then
    failwith "table-1 flow: sparse-natural diverged from the dense kernel";
  sparse_records :=
    ( "flow",
      Obs.Json.Obj
        [
          ("kernel_s", Obs.Json.Num kernel_s);
          ("sparse_s", Obs.Json.Num sparse_s);
          ("natural_identical", Obs.Json.Bool identical);
        ] )
    :: !sparse_records

let sparse_bench () =
  section
    "Sparse - CSR LU (symbolic/numeric split) vs dense kernel, \
     refactor+solve per iterate";
  (* caches off: repeated identical solves must measure the solver *)
  (Cache.Config.with_enabled false @@ fun () ->
   let tb = lazy (let _, c, g = solver_testbench () in (c, g)) in
   sparse_workload ~label:"rc-ladder" (fun n -> rc_ladder (max 1 (n - 2)));
   (* one testbench copy is 21 MNA unknowns (14 nodes + 7 source rows) *)
   sparse_workload ~label:"ota-array" (fun n ->
     ota_array (Lazy.force tb) (max 1 (n / 21))));
  sparse_flow_identity ();
  Format.printf
    "@.symbolic analysis runs once per circuit structure and is reported \
     separately: every Newton iterate, transient step and AC point pays \
     only the numeric refactor.@."

let sparse_doc () =
  Obs.Json.Obj
    (("schema", Obs.Json.Str "losac.bench.sparse/1")
     :: List.rev !sparse_records)

let write_sparse_json path = write_doc ~what:"sparse" (sparse_doc ()) path

(* ------------------------------------------------------------------ *)
(* Serve - job-daemon load test                                        *)
(* ------------------------------------------------------------------ *)

(* top-level records dumped by [--serve-json FILE] (CI keeps it as
   BENCH_server.json) *)
let serve_records : Obs.Json.t list ref = ref []
let serve_clients = ref 8
let serve_requests = ref 1000
let serve_socket : string option ref = ref None

(* A realistic request mix: mostly cheap probes, a sizing-heavy Monte
   Carlo or corner job every 16th request.  Seven distinct MC seeds so
   the shared comdiac.mc_sample memo warms up across *different*
   clients — the whole point of a long-running daemon. *)
let serve_mixed_workload i =
  match i mod 32 with
  | 0 -> Serve.Protocol.Mc { n = 2; seed = i mod 7 }
  | 16 -> Serve.Protocol.Corners
  | 8 | 24 -> Serve.Protocol.Sleep { seconds = 0.001 }
  | k when k mod 3 = 0 -> Serve.Protocol.Ping
  | k when k mod 3 = 1 -> Serve.Protocol.Tech
  | _ -> Serve.Protocol.Stats

let serve_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let serve_bench () =
  section "Serve - daemon load test (losac.job/1 over a Unix socket)";
  let in_process = !serve_socket = None in
  let path =
    match !serve_socket with
    | Some p -> p
    | None ->
      let p = Filename.temp_file "losac-bench" ".sock" in
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      p
  in
  let server =
    if in_process then
      Some
        (Serve.Server.start
           { Serve.Server.default_config with
             socket_path = Some path;
             queue_limit = 4096 })
    else None
  in
  (* Cold vs warm flow job: the memo caches are process-wide in the
     daemon, so the first client pays the synthesis and every later
     request is answered from the warm flow.sizing / parasitic_plan /
     mc_sample entries — with byte-identical canonical responses. *)
  if in_process then begin
    Cache.Memo.clear_all ();
    let c = Serve.Client.connect path in
    let time req =
      let t0 = Obs.Clock.monotonic_s () in
      let r = Serve.Client.call c req in
      (r, Obs.Clock.monotonic_s () -. t0)
    in
    (* same id both times: the id echoes into the response, and the
       point is that cold and warm canonical bytes are equal *)
    let req =
      Serve.Protocol.request ~id:1
        (Serve.Protocol.Synth { case = Core.Flow.Case4 })
    in
    let r1, cold_s = time req in
    let r2, warm_s = time req in
    Serve.Client.close c;
    let identical =
      String.equal (Serve.Protocol.canonical r1) (Serve.Protocol.canonical r2)
    in
    let speedup = cold_s /. warm_s in
    Format.printf
      "flow case-4 job: cold %.2f s, warm %.4f s (%.0fx; responses \
       byte-identical: %b)@."
      cold_s warm_s speedup identical;
    serve_records :=
      Obs.Json.Obj
        [
          ("experiment", Obs.Json.Str "flow_warm");
          ("cold_s", Obs.Json.Num cold_s);
          ("warm_s", Obs.Json.Num warm_s);
          ("speedup", Obs.Json.Num speedup);
          ("identical", Obs.Json.Bool identical);
        ]
      :: !serve_records
  end;
  let clients = max 1 !serve_clients in
  let per_client = max 1 (!serve_requests / clients) in
  let latencies = Array.make clients [||] in
  let failures = Atomic.make 0 in
  let t0 = Obs.Clock.monotonic_s () in
  let threads =
    List.init clients (fun k ->
      Thread.create
        (fun () ->
          let c = Serve.Client.connect path in
          let lats = Array.make per_client nan in
          for j = 0 to per_client - 1 do
            let i = (k * per_client) + j in
            let req = Serve.Protocol.request ~id:i (serve_mixed_workload i) in
            let s0 = Obs.Clock.monotonic_s () in
            (match (Serve.Client.call c req).Serve.Protocol.status with
             | Serve.Protocol.Done -> ()
             | _ -> Atomic.incr failures);
            lats.(j) <- Obs.Clock.monotonic_s () -. s0
          done;
          Serve.Client.close c;
          latencies.(k) <- lats)
        ())
  in
  List.iter Thread.join threads;
  let wall_s = Obs.Clock.monotonic_s () -. t0 in
  (match server with
   | Some s ->
     Serve.Server.stop s;
     (try Unix.unlink path with Unix.Unix_error _ -> ())
   | None -> ());
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  let total = Array.length all in
  let rps = float_of_int total /. wall_s in
  let ms q = 1e3 *. serve_quantile all q in
  Format.printf
    "%d client(s) x %d request(s): %.1f req/s over %.2f s; latency p50 \
     %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms; %d failure(s)@."
    clients per_client rps wall_s (ms 0.5) (ms 0.9) (ms 0.99) (ms 1.0)
    (Atomic.get failures);
  serve_records :=
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.Str "mixed_load");
        ("clients", Obs.Json.Num (float_of_int clients));
        ("requests", Obs.Json.Num (float_of_int total));
        ("wall_s", Obs.Json.Num wall_s);
        ("throughput_rps", Obs.Json.Num rps);
        ("p50_ms", Obs.Json.Num (ms 0.5));
        ("p90_ms", Obs.Json.Num (ms 0.9));
        ("p99_ms", Obs.Json.Num (ms 0.99));
        ("max_ms", Obs.Json.Num (ms 1.0));
        ("failures", Obs.Json.Num (float_of_int (Atomic.get failures)));
      ]
    :: !serve_records;
  (* Executor sweep: the same daemon, 1 vs 2 vs 4 executor domains,
     under a mixed load whose requests pin pairwise-conflicting context
     flags (cache on/off x backend kernel/sparse-natural) — concurrent
     jobs with contradictory switches are exactly what the context-local
     bindings must isolate.  Every other request is a short sleep so
     executor overlap shows even on a single-core box: a sleeping job
     parks its executor domain while another executes compute. *)
  if in_process then begin
    let conflict_request i =
      let workload =
        if i mod 2 = 0 then Serve.Protocol.Sleep { seconds = 0.02 }
        else
          match i mod 8 with
          | 1 | 5 -> Serve.Protocol.Mc { n = 2; seed = i mod 7 }
          | 3 -> Serve.Protocol.Tech
          | _ -> Serve.Protocol.Ping
      in
      let backend =
        if i mod 2 = 0 then Sim.Stamps.Kernel
        else Sim.Stamps.Sparse Linalg.Sparse.Natural
      in
      (* conflicting cache flags ride on the cheap workloads so the
         sweep measures executor overlap, not cold recomputation *)
      let cache = i mod 4 < 2 in
      Serve.Protocol.request ~id:i ~cache ~backend workload
    in
    (* warm the process-wide memos once so the 1-executor baseline is
       not charged for cold synthesis the later sweep points skip *)
    for s = 0 to 6 do
      ignore
        (Serve.Api.execute
           (Serve.Protocol.request (Serve.Protocol.Mc { n = 2; seed = s })))
    done;
    ignore (Serve.Api.execute (Serve.Protocol.request Serve.Protocol.Corners));
    let clients = 4 and per_client = 16 in
    let measure n_exec =
      let path = Filename.temp_file "losac-bench-ex" ".sock" in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let server =
        Serve.Server.start
          { Serve.Server.default_config with
            socket_path = Some path;
            queue_limit = 4096;
            executors = n_exec }
      in
      let latencies = Array.make clients [||] in
      let failures = Atomic.make 0 in
      let t0 = Obs.Clock.monotonic_s () in
      let threads =
        List.init clients (fun k ->
          Thread.create
            (fun () ->
              let c = Serve.Client.connect path in
              let lats = Array.make per_client nan in
              for j = 0 to per_client - 1 do
                let i = (k * per_client) + j in
                let s0 = Obs.Clock.monotonic_s () in
                (match
                   (Serve.Client.call c (conflict_request i))
                     .Serve.Protocol.status
                 with
                 | Serve.Protocol.Done -> ()
                 | _ -> Atomic.incr failures);
                lats.(j) <- Obs.Clock.monotonic_s () -. s0
              done;
              Serve.Client.close c;
              latencies.(k) <- lats)
            ())
      in
      List.iter Thread.join threads;
      let wall_s = Obs.Clock.monotonic_s () -. t0 in
      Serve.Server.stop server;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let all = Array.concat (Array.to_list latencies) in
      Array.sort compare all;
      (wall_s, all, Atomic.get failures)
    in
    let base_rps = ref nan in
    List.iter
      (fun n_exec ->
        let wall_s, all, fails = measure n_exec in
        let total = Array.length all in
        let rps = float_of_int total /. wall_s in
        if n_exec = 1 then base_rps := rps;
        let speedup = rps /. !base_rps in
        let ms q = 1e3 *. serve_quantile all q in
        Format.printf
          "executors=%d: %d conflicting-ctx request(s) in %.2f s — %.1f \
           req/s (%.2fx vs 1 executor); p50 %.2f ms  p99 %.2f ms; %d \
           failure(s)@."
          n_exec total wall_s rps speedup (ms 0.5) (ms 0.99) fails;
        serve_records :=
          Obs.Json.Obj
            [
              ("experiment", Obs.Json.Str "executor_sweep");
              ("executors", Obs.Json.Num (float_of_int n_exec));
              ("clients", Obs.Json.Num (float_of_int clients));
              ("requests", Obs.Json.Num (float_of_int total));
              ("wall_s", Obs.Json.Num wall_s);
              ("throughput_rps", Obs.Json.Num rps);
              ("speedup_vs_1", Obs.Json.Num speedup);
              ("p50_ms", Obs.Json.Num (ms 0.5));
              ("p99_ms", Obs.Json.Num (ms 0.99));
              ("failures", Obs.Json.Num (float_of_int fails));
            ]
          :: !serve_records)
      [ 1; 2; 4 ]
  end

let serve_doc () =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "losac.bench.serve/1");
      ("experiments", Obs.Json.Arr (List.rev !serve_records));
    ]

let write_serve_json path = write_doc ~what:"serve" (serve_doc ()) path

(* ------------------------------------------------------------------ *)
(* Optimizer engine: LUT-tier screening vs naive exact-only search     *)

let opt_records = ref []

(* Points-evaluated/second of the optimizer's evaluation tiers, plus the
   engine-level determinism and cross-tier agreement flags the gate
   holds.  The naive baseline is what a search without the two-tier
   split must pay: the full sizing→parasitic→verify loop
   (Objective.Simulated) on every candidate it looks at.  Candidates
   that fail the sizing plan short-circuit the naive path long before
   the testbench, so the throughput contrast that matters is on the
   candidates that complete — the feasible stream is timed separately
   and carries the ≥5x acceptance flag. *)
let opt_bench () =
  section "Optimizer: LUT-tier screening vs exact-only verification";
  let module O = Opt.Objective in
  let obj = O.make ~proc ~kind ~spec () in
  let seed = 2 in
  (* tier timings: memo off so every evaluation is really computed *)
  let mixed_lut_s, mixed_naive_s, lut_s, sim_s, n_mixed, n_feas =
    Cache.Config.with_enabled false @@ fun () ->
    let st = Par.Splitmix.create ~stream:0 42 in
    let probes = List.init 400 (fun _ -> O.sample_vec st) in
    ignore (O.eval obj ~mode:O.Lut_plan (List.hd probes));  (* build grids *)
    let time_tier mode vecs =
      let t0 = Obs.Clock.monotonic_s () in
      List.iter (fun v -> ignore (O.eval obj ~mode v)) vecs;
      (Obs.Clock.monotonic_s () -. t0) /. float_of_int (List.length vecs)
    in
    let mixed_lut_s = time_tier O.Lut_plan probes in
    let mixed_naive_s = time_tier O.Simulated probes in
    let feasible =
      List.filter (fun v -> (O.eval obj ~mode:O.Exact_plan v).O.feasible)
        probes
    in
    ( mixed_lut_s, mixed_naive_s,
      time_tier O.Lut_plan feasible, time_tier O.Simulated feasible,
      List.length probes, List.length feasible )
  in
  let speedup = sim_s /. lut_s in
  let target_met = speedup >= 5.0 in
  Format.printf
    "screening tier (LUT plan): %.0f us/point mixed stream, %.0f us/point \
     feasible@."
    (1e6 *. mixed_lut_s) (1e6 *. lut_s);
  Format.printf
    "naive exact-only (simulate every candidate): %.0f us/point mixed, \
     %.0f us/point feasible@."
    (1e6 *. mixed_naive_s) (1e6 *. sim_s);
  Format.printf
    "feasible stream (%d of %d probes): %.0f vs %.0f points/s — %.1fx \
     (target >= 5x: %s)@."
    n_feas n_mixed (1.0 /. lut_s) (1.0 /. sim_s) speedup
    (if target_met then "met" else "NOT MET");
  opt_records :=
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.Str "tiers");
        ("probes", Obs.Json.Num (float_of_int n_mixed));
        ("feasible", Obs.Json.Num (float_of_int n_feas));
        ("mixed_screen_point_us", Obs.Json.Num (1e6 *. mixed_lut_s));
        ("mixed_naive_point_us", Obs.Json.Num (1e6 *. mixed_naive_s));
        ("screen_point_us", Obs.Json.Num (1e6 *. lut_s));
        ("naive_point_us", Obs.Json.Num (1e6 *. sim_s));
        ("screen_points_per_sec", Obs.Json.Num (1.0 /. lut_s));
        ("naive_points_per_sec", Obs.Json.Num (1.0 /. sim_s));
        ("lut_vs_exact_speedup", Obs.Json.Num speedup);
        ("target_5x_met", Obs.Json.Bool target_met);
      ]
    :: !opt_records;
  (* engine throughput and jobs-identity: the same optimization at
     jobs = 1 / 2 / default must return the identical result.  The memo
     is off so every run pays for every evaluation — otherwise the first
     run warms the candidate cache and the later rates measure cache
     hits, not the engine *)
  let engine ~jobs ~lut =
    Cache.Config.with_enabled false @@ fun () ->
    let ctx = Exec.Ctx.make ?jobs proc in
    Opt.Search.run ~ctx ~starts:6 ~budget:240 ~seed ~lut ~measure:false
      ~kind ~spec ()
  in
  let r1 = engine ~jobs:(Some 1) ~lut:true in
  let r2 = engine ~jobs:(Some 2) ~lut:true in
  let rn = engine ~jobs:None ~lut:true in
  let same (a : Opt.Search.result) (b : Opt.Search.result) =
    Stdlib.compare
      (a.Opt.Search.survivors, a.Opt.Search.front, a.Opt.Search.best)
      (b.Opt.Search.survivors, b.Opt.Search.front, b.Opt.Search.best)
    = 0
  in
  let jobs_identical = same r1 r2 && same r1 rn in
  Format.printf
    "engine (6 starts, 240-eval budget): %.0f / %.0f / %.0f points/s at \
     jobs 1/2/default; results identical across jobs: %b@."
    (Opt.Search.points_per_second r1)
    (Opt.Search.points_per_second r2)
    (Opt.Search.points_per_second rn)
    jobs_identical;
  opt_records :=
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.Str "engine");
        ("starts", Obs.Json.Num 6.0);
        ("budget", Obs.Json.Num 240.0);
        ("points_per_sec_jobs1",
         Obs.Json.Num (Opt.Search.points_per_second r1));
        ("points_per_sec_jobs2",
         Obs.Json.Num (Opt.Search.points_per_second r2));
        ("identical_across_jobs", Obs.Json.Bool jobs_identical);
      ]
    :: !opt_records;
  (* cross-tier agreement at equal verified quality, plus the LUT trust
     guard over the cells this run actually interpolated from *)
  let re = engine ~jobs:None ~lut:false in
  let front_identical =
    Stdlib.compare rn.Opt.Search.front re.Opt.Search.front = 0
  in
  let best_identical =
    Stdlib.compare rn.Opt.Search.best re.Opt.Search.best = 0
  in
  let trust = Device.Lut.trust_check () in
  let trust_ok = trust.Device.Lut.max_rel_err < 0.05 in
  Format.printf
    "LUT toggle at seed %d: front identical %b, best identical %b (verified \
     best %.4f vs %.4f)@."
    seed front_identical best_identical rn.Opt.Search.best.O.score
    re.Opt.Search.best.O.score;
  Format.printf
    "LUT trust guard: %d cell(s) visited, max rel err %.2e (< 5%%: %b)@."
    trust.Device.Lut.cells_visited trust.Device.Lut.max_rel_err trust_ok;
  opt_records :=
    Obs.Json.Obj
      [
        ("experiment", Obs.Json.Str "lut_agreement");
        ("seed", Obs.Json.Num (float_of_int seed));
        ("front_identical_lut", Obs.Json.Bool front_identical);
        ("best_identical_lut", Obs.Json.Bool best_identical);
        ("best_score_lut", Obs.Json.Num rn.Opt.Search.best.O.score);
        ("best_score_exact", Obs.Json.Num re.Opt.Search.best.O.score);
        ("lut_trust_ok", Obs.Json.Bool trust_ok);
      ]
    :: !opt_records

let opt_doc () =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "losac.bench.opt/1");
      ("cores",
       Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("jobs", Obs.Json.Num (float_of_int (Par.Pool.default_jobs ())));
      ("experiments", Obs.Json.Arr (List.rev !opt_records));
    ]

let write_opt_json path = write_doc ~what:"opt" (opt_doc ()) path

let experiments =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("ablation", ablation);
    ("statistics", statistics);
    ("timing", timing);
    ("scaling", scaling);
    ("cache", cache_bench);
    ("kernels", kernels);
    ("sparse", sparse_bench);
    ("serve", serve_bench);
    ("opt", opt_bench);
  ]

let timing_doc () =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "losac.bench.timing/1");
      ("cores",
       Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("jobs", Obs.Json.Num (float_of_int (Par.Pool.default_jobs ())));
      ("experiments", Obs.Json.Arr (List.rev !timing_records));
    ]

let write_timing_json path = write_doc ~what:"timing" (timing_doc ()) path
let write_scaling_json path = write_doc ~what:"scaling" (scaling_doc ()) path

(* --- perf-regression gate --------------------------------------------- *)

(* Every experiment that produced records is checked against its committed
   baseline; experiments that did not run this invocation are skipped, so
   [bench kernels --check] gates kernels only.  Exit status: 0 pass,
   1 regression, 2 not comparable — unless [--check-report] turns every
   outcome into a report (1-core CI runners can never match a committed
   multi-core baseline). *)
let run_check ~baselines ~report_only =
  let candidates =
    [
      ("timing", (!timing_records <> []), timing_doc);
      ("scaling", (!scaling_records <> []), scaling_doc);
      ("cache", (!cache_records <> []), cache_doc);
      ("kernels", (!kernel_records <> []), kernels_doc);
      ("sparse", (!sparse_records <> []), sparse_doc);
      ("opt", (!opt_records <> []), opt_doc);
    ]
  in
  section "Perf-regression gate";
  let worst = ref 0 in
  List.iter
    (fun (name, ran, doc) ->
      if ran then begin
        let baseline_path =
          Filename.concat baselines ("BENCH_" ^ name ^ ".json")
        in
        let fresh = doc () in
        let verdict = Bench_gate.Gate.check_file ~baseline_path fresh in
        Format.printf "  %-8s vs %s: %a@." name baseline_path
          Bench_gate.Gate.pp_verdict verdict;
        let rank =
          match verdict with
          | Bench_gate.Gate.Pass -> 0
          | Bench_gate.Gate.Regression _ -> 1
          | Bench_gate.Gate.Refusal _ -> 2
        in
        (* a regression outranks a refusal: 1 beats 2 as "worst" *)
        if rank = 1 then worst := 1
        else if rank = 2 && !worst <> 1 then worst := 2
      end)
    candidates;
  if report_only && !worst <> 0 then begin
    Format.printf
      "  (report-only mode: outcome above is informational, exiting 0)@.";
    0
  end
  else !worst

let () =
  let names = ref [] in
  let json = ref None and cache_json = ref None in
  let kernels_json = ref None and sparse_json = ref None in
  let scaling_json = ref None and serve_json = ref None in
  let opt_json = ref None in
  let check = ref false and check_report = ref false in
  let baselines = ref "bench/baselines" in
  let rec split = function
    | [] -> ()
    | "--json" :: path :: rest -> json := Some path; split rest
    | "--cache-json" :: path :: rest -> cache_json := Some path; split rest
    | "--kernels-json" :: path :: rest -> kernels_json := Some path; split rest
    | "--sparse-json" :: path :: rest -> sparse_json := Some path; split rest
    | "--scaling-json" :: path :: rest -> scaling_json := Some path; split rest
    | "--serve-json" :: path :: rest -> serve_json := Some path; split rest
    | "--opt-json" :: path :: rest -> opt_json := Some path; split rest
    | "--serve-socket" :: path :: rest -> serve_socket := Some path; split rest
    | "--serve-clients" :: n :: rest ->
      serve_clients := max 1 (int_of_string n); split rest
    | "--serve-requests" :: n :: rest ->
      serve_requests := max 1 (int_of_string n); split rest
    | "--baselines" :: dir :: rest -> baselines := dir; split rest
    | "--check" :: rest -> check := true; split rest
    | "--check-report" :: rest -> check := true; check_report := true; split rest
    | "--backend" :: name :: rest ->
      (match Sim.Stamps.backend_of_string name with
       | Ok b -> Sim.Stamps.set_default_backend b
       | Error msg ->
         prerr_endline ("bench: " ^ msg);
         exit 2);
      split rest
    | [ ("--json" | "--cache-json" | "--kernels-json" | "--sparse-json"
        | "--scaling-json" | "--serve-json" | "--opt-json" | "--serve-socket"
        | "--serve-clients" | "--serve-requests" | "--backend"
        | "--baselines") ] ->
      prerr_endline
        "bench: --json/--cache-json/--kernels-json/--sparse-json/\
         --scaling-json/--serve-json/--opt-json/--serve-socket/\
         --serve-clients/--serve-requests/--backend/--baselines need an \
         argument";
      exit 2
    | name :: rest -> names := name :: !names; split rest
  in
  split (List.tl (Array.to_list Sys.argv));
  let requested =
    if !names = [] then List.map fst experiments else List.rev !names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Format.printf "unknown experiment %s (have: %s)@." name
          (String.concat " " (List.map fst experiments)))
    requested;
  Option.iter write_timing_json !json;
  Option.iter write_scaling_json !scaling_json;
  Option.iter write_cache_json !cache_json;
  Option.iter write_kernels_json !kernels_json;
  Option.iter write_sparse_json !sparse_json;
  Option.iter write_serve_json !serve_json;
  Option.iter write_opt_json !opt_json;
  if !check then
    exit (run_check ~baselines:!baselines ~report_only:!check_report)
