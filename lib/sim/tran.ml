module El = Netlist.Element

type result = {
  ts : float array;
  idx : Indexing.t;
  states : float array array; (* states.(step).(unknown) *)
}

let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 a

(* One backward-Euler step: Newton from the previous point with the
   step's companions already refreshed.  Returns the new point and the
   iterations it took. *)
let newton_step kind sys ~gmin ~time x0 =
  let x = Array.copy x0 in
  let rec loop iter =
    if iter >= 80 then
      raise (Phys.Numerics.No_convergence
               (Printf.sprintf "Tran: Newton failed at t=%g" time))
    else begin
      let ctx = Stamps.iterate sys x in
      Stamps.run_tran kind sys ctx ~gmin ~time;
      let delta =
        try Stamps.solve sys ctx
        with Linalg.Singular _ ->
          raise (Phys.Numerics.No_convergence
                   (Printf.sprintf "Tran: singular Jacobian at t=%g" time))
      in
      let m = max_abs delta in
      let scale = if m > 0.5 then 0.5 /. m else 1.0 in
      Array.iteri (fun i d -> x.(i) <- x.(i) +. scale *. d) delta;
      if m *. scale < 1e-9 then (x, iter + 1) else loop (iter + 1)
    end
  in
  loop 0

(* The DC operating point at t = 0 uses the waveform values at time 0
   rather than the DC fields. *)
let circuit_at_t0 circuit =
  let freeze (s : El.source) = { s with El.dc = El.source_value s 0.0 } in
  let rewrite = function
    | El.Isource ({ i; _ } as r) -> El.Isource { r with i = freeze i }
    | El.Vsource ({ v; _ } as r) -> El.Vsource { r with v = freeze v }
    | (El.Mos _ | El.Resistor _ | El.Capacitor _) as e -> e
  in
  List.fold_left
    (fun acc e -> Netlist.Circuit.add acc (rewrite e))
    (Netlist.Circuit.create ~title:(Netlist.Circuit.title circuit))
    (Netlist.Circuit.elements circuit)

let run ?backend ?dt ?(guess = fun _ -> None) ?(gmin = 1e-12) ?stop ~proc
    ~kind ~tstop circuit =
  assert (tstop > 0.0);
  let backend =
    match backend with Some b -> b | None -> Stamps.default_backend ()
  in
  let dt = match dt with Some d -> d | None -> tstop /. 2000.0 in
  let n_steps = int_of_float (Float.ceil (tstop /. dt)) in
  let obs = Obs.Config.enabled () in
  let t0 = if obs then Obs.Clock.monotonic_us () else 0.0 in
  Obs.Trace.with_span ~cat:"sim" "tran.run" @@ fun () ->
  let dc = Dcop.solve ~backend ~guess ~gmin ~proc ~kind (circuit_at_t0 circuit) in
  let idx = Dcop.indexing dc in
  let sys =
    Stamps.system backend idx (Stamps.compile ~transient:true proc idx circuit)
  in
  let x0 =
    Array.init (Indexing.size idx) (fun i ->
      if i < Indexing.node_count idx then
        Dcop.voltage dc (Indexing.node_names idx).(i)
      else 0.0)
  in
  let stopped =
    match stop with
    | None -> fun _ _ -> false
    | Some (node, p) ->
      (match Indexing.node_index idx node with
       | None -> fun t _ -> p t 0.0
       | Some i -> fun t x -> p t x.(i))
  in
  let states = Array.make (n_steps + 1) x0 in
  let ts = Array.init (n_steps + 1) (fun i -> float_of_int i *. dt) in
  let iters = ref 0 in
  (* the companions depend only on the accepted previous point, so they
     are linearised once per step, not per Newton iterate *)
  let rec integrate step prev =
    if step > n_steps then n_steps
    else begin
      let time = ts.(step) in
      Stamps.refresh_companions kind sys ~dt ~prev;
      let x, it = newton_step kind sys ~gmin ~time prev in
      iters := !iters + it;
      states.(step) <- x;
      if stopped time x then step else integrate (step + 1) x
    end
  in
  let last = integrate 1 x0 in
  if obs then begin
    Obs.Metrics.add "sim.tran.steps" (float_of_int last);
    Obs.Metrics.add "sim.tran.newton_iters" (float_of_int !iters);
    Obs.Metrics.add "sim.tran.steps_saved" (float_of_int (n_steps - last));
    Obs.Metrics.observe "sim.tran.run_us" (Obs.Clock.monotonic_us () -. t0);
    Obs.Trace.add_arg "steps" (Obs.Trace.Int last);
    Obs.Trace.add_arg "newton_iters" (Obs.Trace.Int !iters);
    Obs.Trace.add_arg "steps_saved" (Obs.Trace.Int (n_steps - last))
  end;
  if last = n_steps then { ts; idx; states }
  else
    { ts = Array.sub ts 0 (last + 1);
      idx;
      states = Array.sub states 0 (last + 1) }

let times r = r.ts

let waveform r node =
  match Indexing.node_index r.idx node with
  | None -> Array.map (fun _ -> 0.0) r.ts
  | Some i -> Array.map (fun s -> s.(i)) r.states

let value_at r node t =
  let y =
    match Indexing.node_index r.idx node with
    | None -> fun _ -> 0.0
    | Some k -> fun i -> r.states.(i).(k)
  in
  Phys.Numerics.interp_linear_by ~n:(Array.length r.ts) ~x:(Array.get r.ts) ~y t

let max_slope r node =
  let w = waveform r node in
  let rising = ref 0.0 and falling = ref 0.0 in
  for i = 1 to Array.length w - 1 do
    let slope = (w.(i) -. w.(i - 1)) /. (r.ts.(i) -. r.ts.(i - 1)) in
    if slope > !rising then rising := slope;
    if -.slope > !falling then falling := -.slope
  done;
  (!rising, !falling)

let settling_time r node ~target ~tol =
  let w = waveform r node in
  let n = Array.length w in
  (* walk backwards to find the last excursion outside the band *)
  let rec last_out i =
    if i < 0 then None
    else if Float.abs (w.(i) -. target) > tol then Some i
    else last_out (i - 1)
  in
  match last_out (n - 1) with
  | None -> Some 0.0
  | Some i when i = n - 1 -> None
  | Some i -> Some r.ts.(i + 1)
