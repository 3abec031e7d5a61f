module FC = Comdiac.Folded_cascode
(* bound before [Par] below shadows the par library *)
module Pool = Par.Pool
module Par = Comdiac.Parasitics
module Plan = Cairo_layout.Plan
module El = Netlist.Element

type case = Case1 | Case2 | Case3 | Case4

let all_cases = [ Case1; Case2; Case3; Case4 ]

let case_label = function
  | Case1 -> "case 1"
  | Case2 -> "case 2"
  | Case3 -> "case 3"
  | Case4 -> "case 4"

let case_description = function
  | Case1 -> "sizing with no layout capacitances (neither diffusion nor routing)"
  | Case2 ->
    "sizing with diffusion capacitance assuming single transistor folds \
     and no routing capacitance"
  | Case3 ->
    "sizing with exact diffusion capacitance from the layout tool, \
     neglecting routing capacitances"
  | Case4 -> "sizing considering all layout parasitics"

type result = {
  case : case;
  design : FC.design;
  synthesized : Comdiac.Performance.t;
  extracted : Comdiac.Performance.t;
  layout_calls : int;
  sizing_passes : int;
  trajectory : float list;
  report : Plan.report;
  elapsed : float;
}

(* Post-layout netlist view: devices folded and grid-snapped as drawn, with
   as-drawn junction geometry; routing and well caps to ground; coupling
   capacitors between neighbouring routed nets. *)
let extracted_amp proc design report =
  let amp = design.FC.amp in
  let styles = report.Plan.device_styles in
  let drains = report.Plan.device_drains in
  let amp =
    Comdiac.Amp.map_devices
      (fun dev ->
        let name = dev.Device.Mos.name in
        let dev =
          match List.assoc_opt name styles with
          | Some style -> Device.Mos.with_style style dev
          | None -> dev
        in
        let dev = Device.Mos.snap_to_grid proc dev in
        match List.assoc_opt name drains with
        | Some geom -> { dev with Device.Mos.diffusion = Some geom }
        | None -> dev)
      amp
  in
  let ground_caps =
    List.filter_map
      (fun (s : Plan.net_summary) ->
        let c = s.Plan.routing_cap +. s.Plan.well_cap in
        if c > 0.0 then Some (s.Plan.net, c) else None)
      report.Plan.nets
  in
  let amp = Comdiac.Amp.with_node_caps ground_caps amp in
  (* coupling capacitors, deduplicated by unordered net pair *)
  let couplings =
    List.concat_map
      (fun (s : Plan.net_summary) ->
        List.map (fun (other, c) -> ((min s.Plan.net other, max s.Plan.net other), c))
          s.Plan.coupling)
      report.Plan.nets
    |> List.sort_uniq compare
  in
  let coupling_elements =
    List.map
      (fun ((a, b), c) ->
        El.Capacitor { name = Printf.sprintf "cc_%s_%s" a b; p = a; n = b; c })
      couplings
  in
  { amp with Comdiac.Amp.devices = amp.Comdiac.Amp.devices @ coupling_elements }

(* Lightweight GBW check: offset-nulled AC unity-gain frequency only. *)
let measured_gbw ~proc ~kind ~spec amp =
  let tb = Comdiac.Testbench.make ~proc ~kind ~spec amp in
  Comdiac.Testbench.gbw tb

(* Coarse memo over the whole calibrated sizing: the result is a pure
   function of (process, kind, spec, assumed parasitics), and the
   sizing<->layout loop re-enters with recurring parasitic vectors (the
   converged fixed point, warm re-runs of a whole case). *)
let sizing_memo :
    ( Technology.Process.t * Device.Model.kind * Comdiac.Spec.t
      * Comdiac.Parasitics.t,
      FC.design * int )
    Cache.Memo.t =
  Cache.Memo.create ~name:"flow.sizing" ~shards:4 ~capacity:512 ()

let size_calibrated ~proc ~kind ~spec ~parasitics =
  Cache.Memo.find_or_compute sizing_memo (proc, kind, spec, parasitics)
  @@ fun () ->
  let target = spec.Comdiac.Spec.gbw in
  let rec go gbw_internal passes =
    let spec' = { spec with Comdiac.Spec.gbw = gbw_internal } in
    let design = FC.size ~proc ~kind ~spec:spec' ~parasitics in
    if passes >= 4 then (design, passes)
    else
      match measured_gbw ~proc ~kind ~spec design.FC.amp with
      | None -> (design, passes)
      | Some fu ->
        if Float.abs (fu -. target) <= 0.01 *. target then (design, passes)
        else go (gbw_internal *. target /. fu) (passes + 1)
  in
  go target 1

(* The parasitic-mode layout plan is a pure function of (process, layout
   options, design): the sizing<->layout loop of every case re-plans the
   same intermediate designs (cases 3 and 4 share the first iterations,
   and Monte Carlo / corner reruns repeat whole trajectories), so the
   report is memoized.  The generation-mode call at the end of [run] is
   never cached — it is executed once per flow and emits the full cell. *)
let parasitic_plan_memo :
    (Technology.Process.t * Layout_bridge.options * FC.design, Plan.report)
    Cache.Memo.t =
  Cache.Memo.create ~name:"flow.parasitic_plan" ~shards:8 ~capacity:1024 ()

let parasitics_for_case ~case report =
  match case with
  | Case1 -> Par.none
  | Case2 -> Par.single_fold
  | Case3 -> Layout_bridge.parasitics_of_report ~include_routing:false report
  | Case4 -> Layout_bridge.parasitics_of_report ~include_routing:true report

let run ?(options = Layout_bridge.default_options) ?ctx ?proc ~kind ~spec case
    =
  let proc = Ctx.proc ?override:proc ctx in
  Ctx.run ctx @@ fun () ->
  Obs.Trace.with_span ~cat:"flow"
    ~args:[ ("case", Obs.Trace.Str (case_label case)) ]
    "flow.run"
  @@ fun () ->
  let t0 = Obs.Clock.monotonic_s () in
  let layout_calls = ref 0 in
  let sizing_passes = ref 0 in
  (* per-layout-call movement of the parasitic vector: the convergence
     trajectory of the sizing<->layout loop, newest last *)
  let trajectory = ref [] in
  let size parasitics =
    Obs.Trace.with_span ~cat:"flow" "flow.sizing" @@ fun () ->
    (* cooperative timeout: honoured between sizing/layout iterations *)
    Ctx.check_deadline ~analysis:"flow" ctx;
    let design, passes = size_calibrated ~proc ~kind ~spec ~parasitics in
    sizing_passes := !sizing_passes + passes;
    if (Obs.Config.enabled ()) then begin
      Obs.Metrics.add "flow.sizing_passes" (float_of_int passes);
      Obs.Trace.add_arg "passes" (Obs.Trace.Int passes)
    end;
    design
  in
  let parasitic_call design =
    Ctx.check_deadline ~analysis:"flow" ctx;
    incr layout_calls;
    Obs.Trace.with_span ~cat:"flow"
      ~args:[ ("index", Obs.Trace.Int !layout_calls);
              ("mode", Obs.Trace.Str "parasitic_only") ]
      "flow.layout_call"
      (fun () ->
        Cache.Memo.find_or_compute parasitic_plan_memo (proc, options, design)
          (fun () ->
            Layout_bridge.call_layout ~mode:Plan.Parasitic_only proc design
              options))
  in
  let record_delta d =
    trajectory := d :: !trajectory;
    if (Obs.Config.enabled ()) then Obs.Metrics.observe "flow.parasitic_delta" d
  in
  let design =
    match case with
    | Case1 -> size Par.none
    | Case2 -> size Par.single_fold
    | Case3 | Case4 ->
      (* the layout-oriented loop of Fig. 1b: first sizing assumes one
         fold per transistor, then layout information is fed back until
         the calculated parasitics remain unchanged *)
      let rec loop design parasitics iter =
        if iter >= 8 then design
        else begin
          let report = parasitic_call design in
          let parasitics' = parasitics_for_case ~case report in
          let delta = Par.max_distance parasitics parasitics' in
          record_delta delta;
          if delta < 0.02 then design
          else loop (size parasitics') parasitics' (iter + 1)
        end
      in
      let d0 = size Par.single_fold in
      loop d0 Par.single_fold 0
  in
  (* final call in generation mode *)
  let report =
    Obs.Trace.with_span ~cat:"flow"
      ~args:[ ("mode", Obs.Trace.Str "generation") ]
      "flow.layout_call"
      (fun () ->
        Layout_bridge.call_layout ~mode:Plan.Generation proc design options)
  in
  let synthesized =
    Obs.Trace.with_span ~cat:"flow" "flow.verify_synthesized" (fun () ->
      Comdiac.Testbench.measure ~proc ~kind ~spec design.FC.amp)
  in
  let amp_ext = extracted_amp proc design report in
  let extracted =
    Obs.Trace.with_span ~cat:"flow" "flow.verify_extracted" (fun () ->
      Comdiac.Testbench.measure ~proc ~kind ~spec amp_ext)
  in
  if (Obs.Config.enabled ()) then begin
    Obs.Metrics.add "flow.layout_calls" (float_of_int !layout_calls);
    Obs.Trace.add_arg "layout_calls" (Obs.Trace.Int !layout_calls);
    Obs.Trace.add_arg "sizing_passes" (Obs.Trace.Int !sizing_passes)
  end;
  {
    case;
    design;
    synthesized;
    extracted;
    layout_calls = !layout_calls;
    sizing_passes = !sizing_passes;
    trajectory = List.rev !trajectory;
    report;
    elapsed = Obs.Clock.monotonic_s () -. t0;
  }

let run_all ?options ?ctx ?jobs ?proc ~kind ~spec () =
  (* the four Table-1 cases are independent end-to-end syntheses *)
  let proc = Ctx.proc ?override:proc ctx in
  let jobs = Ctx.jobs ?override:jobs ctx in
  let chunk = Ctx.chunk ctx in
  Ctx.run ctx @@ fun () ->
  (* Each case is an entire synthesis flow: expensive — one per chunk.
     Only the deadline is threaded into the per-case contexts: the
     switch fields were already applied by [Ctx.run] above, and
     re-applying them inside pool workers would mutate the global flags
     concurrently.  A switch-free context is inert under [Ctx.run]. *)
  let case_ctx =
    match ctx with
    | Some { Ctx.deadline = Some d; _ } -> Some (Ctx.make ~deadline:d proc)
    | Some _ | None -> None
  in
  Pool.map ?jobs ?chunk ~cost:Pool.Expensive
    (fun case -> run ?options ?ctx:case_ctx ~proc ~kind ~spec case)
    all_cases

(* [Error] instead of raised simulator failures: what the job server
   calls so analysis outcomes are data, never caught exceptions. *)
let classify ~analysis f =
  match f () with
  | v -> Ok v
  | exception e ->
    (match Sim.Sim_error.of_exn ~analysis e with
     | Some err -> Error err
     | None -> raise e)

let run_result ?options ?ctx ?proc ~kind ~spec case =
  classify ~analysis:"flow" (fun () -> run ?options ?ctx ?proc ~kind ~spec case)

let run_all_result ?options ?ctx ?jobs ?proc ~kind ~spec () =
  classify ~analysis:"flow" (fun () ->
    run_all ?options ?ctx ?jobs ?proc ~kind ~spec ())
