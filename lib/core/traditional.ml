module FC = Comdiac.Folded_cascode
module Par = Comdiac.Parasitics
module Plan = Cairo_layout.Plan

type iteration = {
  index : int;
  gbw : float;
  pm : float;
  met : bool;
}

type result = {
  design : FC.design;
  extracted : Comdiac.Performance.t;
  iterations : iteration list;
  full_layouts : int;
  extracted_simulations : int;
  converged : bool;
  elapsed : float;
}

let meets spec perf =
  let target = spec.Comdiac.Spec.gbw in
  Float.abs (perf.Comdiac.Performance.gbw -. target) <= 0.02 *. target
  && perf.Comdiac.Performance.phase_margin
     >= spec.Comdiac.Spec.phase_margin -. 1.0

let run ?(options = Layout_bridge.default_options) ?(max_iterations = 8) ~proc
    ~kind ~spec () =
  Obs.Trace.with_span ~cat:"flow" "traditional.run" @@ fun () ->
  let t0 = Obs.Clock.monotonic_s () in
  let full_layouts = ref 0 in
  let sims = ref 0 in
  let rec loop parasitics gbw_internal iters index =
    Obs.Trace.with_span ~cat:"flow"
      ~args:[ ("index", Obs.Trace.Int index) ]
      "traditional.iteration"
    @@ fun () ->
    (* re-size against whatever the designer knows so far *)
    let spec' = { spec with Comdiac.Spec.gbw = gbw_internal } in
    let design = FC.size ~proc ~kind ~spec:spec' ~parasitics in
    (* full layout generation and extraction - the expensive step *)
    incr full_layouts;
    let report =
      Obs.Trace.with_span ~cat:"flow" "traditional.full_layout" (fun () ->
        Layout_bridge.call_layout ~mode:Plan.Generation proc design options)
    in
    let amp_ext = Flow.extracted_amp proc design report in
    incr sims;
    let perf = Comdiac.Testbench.measure ~proc ~kind ~spec amp_ext in
    let it =
      {
        index;
        gbw = perf.Comdiac.Performance.gbw;
        pm = perf.Comdiac.Performance.phase_margin;
        met = meets spec perf;
      }
    in
    if (Obs.Config.enabled ()) then begin
      (* relative GBW error after each full layout: the traditional
         flow's convergence trajectory, comparable to the layout-oriented
         flow's [flow.parasitic_delta] series *)
      Obs.Metrics.observe "traditional.gbw_error"
        (Float.abs (it.gbw -. spec.Comdiac.Spec.gbw)
         /. spec.Comdiac.Spec.gbw);
      Obs.Trace.add_arg "gbw" (Obs.Trace.Float it.gbw);
      Obs.Trace.add_arg "pm" (Obs.Trace.Float it.pm);
      Obs.Trace.add_arg "met" (Obs.Trace.Bool it.met)
    end;
    let iters = it :: iters in
    if it.met || index >= max_iterations then
      (design, perf, List.rev iters, it.met)
    else begin
      (* compensate: adopt the extracted parasitics and correct the GBW
         target by the observed shortfall *)
      let parasitics' = Layout_bridge.parasitics_of_report report in
      let gbw_internal' =
        gbw_internal *. spec.Comdiac.Spec.gbw /. Float.max 1e3 perf.Comdiac.Performance.gbw
      in
      loop parasitics' gbw_internal' iters (index + 1)
    end
  in
  let design, extracted, iterations, converged =
    loop Par.none spec.Comdiac.Spec.gbw [] 1
  in
  if (Obs.Config.enabled ()) then
    Obs.Metrics.add "traditional.full_layouts" (float_of_int !full_layouts);
  {
    design;
    extracted;
    iterations;
    full_layouts = !full_layouts;
    extracted_simulations = !sims;
    converged;
    elapsed = Obs.Clock.monotonic_s () -. t0;
  }
