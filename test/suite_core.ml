open Helpers
module Flow = Core.Flow
module Bridge = Core.Layout_bridge
module FC = Comdiac.Folded_cascode
module Perf = Comdiac.Performance
module Plan = Cairo_layout.Plan
module Route = Cairo_layout.Route
module Slicing = Cairo_layout.Slicing
module P = Technology.Process

let proc = P.c06
let kind = Device.Model.Bsim_lite
let spec = Comdiac.Spec.paper_ota

(* the four flows are the expensive part of the suite; run each once *)
let results =
  lazy
    (List.map
       (fun case -> (case, Flow.run ~proc ~kind ~spec case))
       Flow.all_cases)

let result case = List.assoc case (Lazy.force results)

(* --- bridge ------------------------------------------------------------- *)

let test_floorplan_structure () =
  let d = FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.none in
  let fp = Bridge.floorplan proc d Bridge.default_options in
  Alcotest.(check int) "six groups" 6 (List.length (Slicing.leaves fp));
  let names = List.map Plan.group_name (Slicing.leaves fp) in
  Alcotest.(check bool) "pair group present" true (List.mem "P1/P2" names);
  Alcotest.(check bool) "sink mirror present" true (List.mem "N5:N6" names)

let test_net_requests () =
  let d = FC.size ~proc ~kind ~spec ~parasitics:Comdiac.Parasitics.none in
  let reqs = Bridge.net_requests d in
  let get net = List.find (fun (r : Route.net_request) -> r.Route.net = net) reqs in
  Alcotest.(check bool) "out carries cascode current" true
    ((get "out").Route.current > 0.5 *. d.FC.i2);
  Alcotest.(check bool) "supply carries total current" true
    ((get "vdd").Route.current > d.FC.i1)

(* --- table 1 shape assertions -------------------------------------------- *)

let gbw r which =
  let p = match which with `S -> r.Flow.synthesized | `E -> r.Flow.extracted in
  p.Perf.gbw

let pm r which =
  let p = match which with `S -> r.Flow.synthesized | `E -> r.Flow.extracted in
  p.Perf.phase_margin

let test_case1_shape () =
  let r = result Flow.Case1 in
  Alcotest.(check int) "no layout feedback" 0 r.Flow.layout_calls;
  (* synthesized meets the spec, extraction falls short *)
  check_in_range "synth gbw on target" (0.97 *. spec.Comdiac.Spec.gbw)
    (1.03 *. spec.Comdiac.Spec.gbw) (gbw r `S);
  Alcotest.(check bool) "extracted gbw short by > 3%" true
    (gbw r `E < 0.97 *. gbw r `S);
  Alcotest.(check bool) "extracted pm degrades" true (pm r `E < pm r `S -. 2.0);
  (* DC characteristics unaffected by the missing capacitances *)
  check_close ~rel:0.02 "gain matches extraction"
    r.Flow.synthesized.Perf.dc_gain_db r.Flow.extracted.Perf.dc_gain_db;
  check_close ~rel:0.05 "power matches extraction"
    r.Flow.synthesized.Perf.power r.Flow.extracted.Perf.power

let test_case2_shape () =
  let r1 = result Flow.Case1 and r2 = result Flow.Case2 in
  (* over-estimated diffusion: the real layout folds, so extraction
     exceeds the synthesized view *)
  Alcotest.(check bool) "extracted gbw exceeds synthesized" true
    (gbw r2 `E > gbw r2 `S);
  Alcotest.(check bool) "extracted pm exceeds synthesized" true
    (pm r2 `E >= pm r2 `S -. 0.5);
  (* the price of over-design: less gain, lower rout, more power than
     case 1 *)
  Alcotest.(check bool) "case2 gain below case1" true
    (r2.Flow.synthesized.Perf.dc_gain_db < r1.Flow.synthesized.Perf.dc_gain_db);
  Alcotest.(check bool) "case2 rout below case1" true
    (r2.Flow.synthesized.Perf.output_resistance
     < r1.Flow.synthesized.Perf.output_resistance);
  Alcotest.(check bool) "case2 burns more power" true
    (r2.Flow.synthesized.Perf.power > r1.Flow.synthesized.Perf.power)

let test_case3_shape () =
  let r = result Flow.Case3 in
  Alcotest.(check bool) "layout loop ran" true (r.Flow.layout_calls >= 2);
  (* close, but the neglected routing still costs a little *)
  Alcotest.(check bool) "small shortfall" true
    (gbw r `E < gbw r `S && gbw r `E > 0.93 *. gbw r `S)

let test_case4_shape () =
  let r = result Flow.Case4 in
  check_in_range "layout calls about three" 2.0 6.0
    (float_of_int r.Flow.layout_calls);
  (* the headline result: synthesized matches extracted and meets spec *)
  check_close ~rel:0.02 "gbw synth = extracted" (gbw r `S) (gbw r `E);
  check_in_range "extracted gbw meets spec" (0.97 *. spec.Comdiac.Spec.gbw)
    (1.05 *. spec.Comdiac.Spec.gbw) (gbw r `E);
  Alcotest.(check bool) "extracted pm meets spec" true
    (pm r `E >= spec.Comdiac.Spec.phase_margin -. 1.0);
  check_close ~rel:0.03 "pm synth = extracted" (pm r `S) (pm r `E);
  check_close ~rel:0.03 "gain synth = extracted"
    r.Flow.synthesized.Perf.dc_gain_db r.Flow.extracted.Perf.dc_gain_db

let test_case_ordering () =
  (* extracted GBW: case4 closest to target, case1 worst *)
  let err case =
    Float.abs (gbw (result case) `E -. spec.Comdiac.Spec.gbw)
  in
  Alcotest.(check bool) "case4 beats case1" true (err Flow.Case4 < err Flow.Case1);
  Alcotest.(check bool) "case3 beats case1" true (err Flow.Case3 < err Flow.Case1)

(* --- extracted view --------------------------------------------------------- *)

let test_extracted_amp_details () =
  let r = result Flow.Case4 in
  let amp = Core.Flow.extracted_amp proc r.Flow.design r.Flow.report in
  (* devices folded and snapped to the lambda grid per finger *)
  List.iter
    (fun dev ->
      let nf = dev.Device.Mos.style.Device.Folding.nf in
      Alcotest.(check bool) (dev.Device.Mos.name ^ " folded") true (nf >= 2);
      let wf = dev.Device.Mos.w /. float_of_int nf in
      let lambda = proc.P.lambda in
      let snapped = Float.rem (wf /. lambda) 1.0 in
      Alcotest.(check bool)
        (dev.Device.Mos.name ^ " finger on grid")
        true
        (snapped < 1e-6 || snapped > 1.0 -. 1e-6))
    (Comdiac.Amp.mos_devices amp);
  (* coupling capacitors present *)
  let couplings =
    List.filter
      (function
        | Netlist.Element.Capacitor { name; _ } ->
          String.length name >= 3 && String.sub name 0 3 = "cc_"
        | Netlist.Element.Mos _ | Netlist.Element.Resistor _
        | Netlist.Element.Isource _ | Netlist.Element.Vsource _ -> false)
      amp.Comdiac.Amp.devices
  in
  Alcotest.(check bool) "coupling capacitors extracted" true (couplings <> [])

let test_layout_report_sanity () =
  let r = result Flow.Case4 in
  let report = r.Flow.report in
  Alcotest.(check bool) "generation emitted a cell" true
    (report.Plan.cell <> None);
  Alcotest.(check int) "all devices styled" 11
    (List.length report.Plan.device_styles);
  (* drains internal on the cascodes feeding the output (frequency
     optimisation, paper Fig. 5 discussion) *)
  List.iter
    (fun name ->
      let style = List.assoc name report.Plan.device_styles in
      Alcotest.(check bool) (name ^ " drain internal") true
        style.Device.Folding.drain_internal;
      Alcotest.(check bool) (name ^ " even folds") true
        (style.Device.Folding.nf mod 2 = 0))
    [ "N1C"; "N2C"; "P3C"; "P4C" ];
  (* the floating well of the input pair loads the tail *)
  match Plan.find_net report "tail" with
  | None -> Alcotest.fail "tail net missing from report"
  | Some s -> Alcotest.(check bool) "tail well cap" true (s.Plan.well_cap > 0.0)

(* --- sparse solver backend, end to end ----------------------------------- *)

let strip_elapsed r = { r with Flow.elapsed = 0.0 }

let test_sparse_flow_identity () =
  (* the full synthesis flow under the sparse natural-order backend must
     be structurally identical to the dense kernel run (only the
     wall-clock field may differ); caches are off so the second run
     cannot answer from memos computed by the first *)
  let run backend =
    Sim.Stamps.with_default_backend backend @@ fun () ->
    Cache.Config.with_enabled false @@ fun () ->
    Flow.run ~proc ~kind ~spec Flow.Case2
  in
  let k = run Sim.Stamps.Kernel in
  let s = run (Sim.Stamps.Sparse Linalg.Sparse.Natural) in
  Alcotest.(check bool) "sparse-natural flow == kernel flow" true
    (compare (strip_elapsed k) (strip_elapsed s) = 0)

(* --- bit-identity pins ---------------------------------------------------- *)

(* [Int64.bits_of_float] of the case-4 synthesized and extracted
   performance records (paper OTA spec, kernel backend, fields in record
   order), recorded from the name-based, full-length fixed-step transient
   that the compiled, early-stopping one replaced.  A change to the
   simulator's arithmetic or the slew bench's stop shows up here. *)
let case4_pins =
  [
    ( P.c06, Device.Model.Level1,
      [|
         0x4052aa134867a1a0L; 0x418ef00a7a7f675dL; 0x4051233deea6b307L;
         0x418a8050ab2c6396L; 0x405c5e6521db7b17L; 0xbf1e0bb925160258L;
         0x414f16ce61ea7ef5L; 0x3f123d99ef77f41aL; 0x3e41113a11d151f9L;
         0x3edda7f8ec794b7bL; 0x3f610b7c422de269L |],
      [|
         0x4052cd9f4b0616ebL; 0x418f03c810580cd9L; 0x4050c5b157206326L;
         0x418a8050ab2c6396L; 0x405c7c0e062ec8f6L; 0xbf1c1f875c682fd9L;
         0x41508022b97aec46L; 0x3f123a2f9440f56fL; 0x3e41075e44ad071bL;
         0x3edd96f90618e502L; 0x3f61265daeb4824dL |] );
    ( P.c06, Device.Model.Bsim_lite,
      [|
         0x4051fe068a392d5cL; 0x418ef9efcb8e702bL; 0x405139325ddad9f1L;
         0x418ad640cb3dfa1aL; 0x405bdbd64c046accL; 0xbf2487ec85288ce0L;
         0x4146d378e6868df9L; 0x3f123b0d18c41626L; 0x3e4101cf645278deL;
         0x3ede1002c5d2b988L; 0x3f6183279d225a76L |],
      [|
         0x4051f994e7173a9aL; 0x418f1c5353c12c0cL; 0x40513a910f257764L;
         0x418aeef75ba0bb78L; 0x405bdbbee8fb51ceL; 0xbf24c4e86f78ce2aL;
         0x414689a0dcdd3c08L; 0x3f1247fbc19afd9aL; 0x3e4105c1882dee5aL;
         0x3ede16b942eb2309L; 0x3f61b4fdd1f4f948L |] );
    ( P.c035, Device.Model.Level1,
      [|
         0x40558a045732b93dL; 0x418efcb88395085bL; 0x40532908706a0077L;
         0x4190562379639588L; 0x405e9b9f5cf64a17L; 0xbf0535be4729ba55L;
         0x416e6795acc97189L; 0x3f1252070c7caa1bL; 0x3e415ffe7ec9ab4bL;
         0x3edbc16a35130e7eL; 0x3f60468c8c3bb1c4L |],
      [|
         0x40557b77be3e65acL; 0x418f498d8b5a5242L; 0x40532dd9e24c2e50L;
         0x4190562379639588L; 0x405e92a21292181aL; 0xbf05cd9d22c34d5dL;
         0x416d560c5d512003L; 0x3f126887b35dfa92L; 0x3e41624357495464L;
         0x3edbc71121deb4c8L; 0x3f609d897abae667L |] );
    ( P.c035, Device.Model.Bsim_lite,
      [|
         0x405564464ec688eeL; 0x418efc205b625f24L; 0x4052cb08a7fc8995L;
         0x4190b7e434d5d98bL; 0x405e9e6ec0dfb39fL; 0xbf06c110be5ee0b4L;
         0x416c47303bf87722L; 0x3f123caf939ae8f0L; 0x3e413df54dd9b6b2L;
         0x3edc22d26ee53d9cL; 0x3f60e3ff2abf0358L |],
      [|
         0x4055607630d36ac8L; 0x418f199543dbd0ccL; 0x4052cc705d45c933L;
         0x4190cbcc435e957cL; 0x405e9ac57f2609b2L; 0xbf06ef8900938e1eL;
         0x416bfacb2f0d7f32L; 0x3f124455d5e64c7aL; 0x3e413dfc0c698141L;
         0x3edc2310ac6a6eb9L; 0x3f6104661b257e8bL |] );
  ]

let perf_bits (p : Perf.t) =
  Array.map Int64.bits_of_float
    Perf.[| p.dc_gain_db; p.gbw; p.phase_margin; p.slew_rate; p.cmrr_db;
            p.offset; p.output_resistance; p.input_noise;
            p.thermal_noise_density; p.flicker_noise_density; p.power |]

let label proc kind =
  Printf.sprintf "%s %s" proc.P.name (Device.Model.kind_to_string kind)

(* Case 4 on each pinned technology and model, memos off so every run
   simulates; under the kernel backend, since the suite also runs with
   the sparse ones as default. *)
let test_case4_pins () =
  Sim.Stamps.with_default_backend Sim.Stamps.Kernel @@ fun () ->
  Cache.Config.with_enabled false @@ fun () ->
  List.iter
    (fun (proc, kind, synth, extr) ->
      let r = Flow.run ~proc ~kind ~spec Flow.Case4 in
      let l = label proc kind in
      Alcotest.(check (array int64)) (l ^ " synthesized") synth
        (perf_bits r.Flow.synthesized);
      Alcotest.(check (array int64)) (l ^ " extracted") extr
        (perf_bits r.Flow.extracted))
    case4_pins

(* --- traditional flow --------------------------------------------------------- *)

let test_traditional_flow () =
  let r = Core.Traditional.run ~proc ~kind ~spec () in
  Alcotest.(check bool) "converged" true r.Core.Traditional.converged;
  check_in_range "needed a few full layouts" 2.0 8.0
    (float_of_int r.Core.Traditional.full_layouts);
  Alcotest.(check bool) "every iteration simulated" true
    (r.Core.Traditional.extracted_simulations = r.Core.Traditional.full_layouts);
  (* the proposed flow reaches spec without any full-layout iteration
     loops: its only generation run is the final one *)
  let r4 = result Flow.Case4 in
  Alcotest.(check bool) "proposed flow avoids layout iterations" true
    (r4.Flow.layout_calls <= r.Core.Traditional.full_layouts + 1)

let suite =
  ( "core",
    [
      case "floorplan structure" test_floorplan_structure;
      case "net requests for EM" test_net_requests;
      case "case 1: missing parasitics" test_case1_shape;
      case "case 2: over-estimated diffusion" test_case2_shape;
      case "case 3: exact diffusion only" test_case3_shape;
      case "case 4: full knowledge (headline)" test_case4_shape;
      case "case error ordering" test_case_ordering;
      case "extracted netlist details" test_extracted_amp_details;
      case "layout report sanity" test_layout_report_sanity;
      case "sparse backend flow identity" test_sparse_flow_identity;
      case "case-4 performance bits pinned" test_case4_pins;
      case "traditional flow comparison" test_traditional_flow;
    ] )
