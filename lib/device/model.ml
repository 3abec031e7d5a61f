module E = Technology.Electrical

type kind = Level1 | Bsim_lite

let kind_to_string = function Level1 -> "level1" | Bsim_lite -> "bsim-lite"

type bias = { vgs : float; vds : float; vbs : float }

type region = Cutoff | Weak | Triode | Saturation

let region_to_string = function
  | Cutoff -> "cutoff"
  | Weak -> "weak"
  | Triode -> "triode"
  | Saturation -> "saturation"

type eval = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  vth : float;
  veff : float;
  vdsat : float;
  region : region;
}

let vt_thermal = Phys.Const.thermal_voltage Phys.Const.room_temperature

(* The helpers below carry [@inline] so the Newton stamping loop — which
   evaluates every device on every iterate — pays no cross-function float
   boxing.  Inlining preserves the floating-point operation sequence
   exactly, so results stay bit-identical. *)

(* Clamp the junction potential so body effect stays defined for mildly
   forward body bias encountered during Newton iterations. *)
let[@inline] phi_minus_vbs p vbs = Float.max 0.05 (p.E.phi -. vbs)

let[@inline] slope_factor p ~vbs =
  1.0 +. p.E.gamma /. (2.0 *. sqrt (phi_minus_vbs p vbs))

let[@inline] threshold kind p ~l ~vbs =
  let body = p.E.gamma *. (sqrt (phi_minus_vbs p vbs) -. sqrt p.E.phi) in
  let rolloff =
    match kind with
    | Level1 -> 0.0
    | Bsim_lite -> p.E.dvt_l *. exp (-.l /. p.E.lt)
  in
  p.E.vto +. body -. rolloff

(* EKV-style smooth overdrive: equals vgs - vth in strong inversion and an
   exponential with slope 1/(n vt) below threshold, giving a C-infinity
   current characteristic through the weak/moderate inversion transition. *)
let[@inline] smooth_overdrive ~n veff =
  let a = 2.0 *. n *. vt_thermal in
  let x = veff /. a in
  if x > 40.0 then veff else a *. log1p (exp x)

let[@inline] kp_effective kind p ~l veffs =
  let kp = E.kp p in
  match kind with
  | Level1 -> kp
  | Bsim_lite ->
    let mobility = 1.0 +. p.E.theta *. veffs in
    let vsat = 1.0 +. veffs /. (p.E.ecrit *. l) in
    kp /. (mobility *. vsat)

(* Forward current with vds >= 0.  The (1 + lambda vds) factor multiplies
   both regions (as SPICE Level 1 does) so the characteristic stays
   continuous at vdsat. *)
let[@inline] ids_forward kind p ~w ~l { vgs; vds; vbs } =
  let n = slope_factor p ~vbs in
  let vth = threshold kind p ~l ~vbs in
  let veffs = smooth_overdrive ~n (vgs -. vth) in
  let kp_eff = kp_effective kind p ~l veffs in
  let beta = kp_eff *. w /. l in
  let lambda = p.E.clm_coeff /. l in
  let clm = 1.0 +. lambda *. vds in
  let vdsat = veffs in
  if vds >= vdsat then 0.5 *. beta /. n *. veffs *. veffs *. clm
  else beta /. n *. (veffs -. 0.5 *. vds) *. vds *. clm

let[@inline] drain_current kind p ~w ~l bias =
  if bias.vds >= 0.0 then ids_forward kind p ~w ~l bias
  else
    (* source/drain swap: with roles exchanged the controlling voltages are
       vgd and vbd. *)
    let swapped =
      { vgs = bias.vgs -. bias.vds;
        vds = -.bias.vds;
        vbs = bias.vbs -. bias.vds }
    in
    -.ids_forward kind p ~w ~l swapped

(* Operating region from the bias-only quantities, shared by
   [evaluate_exact] and [region] so both classify a bias identically. *)
let[@inline] classify ~n ~veff ~vdsat ~vds =
  if veff < -3.0 *. n *. vt_thermal then Cutoff
  else if veff < 3.0 *. n *. vt_thermal then Weak
  else if Float.abs vds < vdsat then Triode
  else Saturation

let evaluate_exact kind p ~w ~l bias =
  let h = 1e-6 in
  let f b = drain_current kind p ~w ~l b in
  let ids = f bias in
  let gm =
    (f { bias with vgs = bias.vgs +. h } -. f { bias with vgs = bias.vgs -. h })
    /. (2.0 *. h)
  in
  let gds =
    (f { bias with vds = bias.vds +. h } -. f { bias with vds = bias.vds -. h })
    /. (2.0 *. h)
  in
  let gmb =
    (f { bias with vbs = bias.vbs +. h } -. f { bias with vbs = bias.vbs -. h })
    /. (2.0 *. h)
  in
  let vth = threshold kind p ~l ~vbs:bias.vbs in
  let n = slope_factor p ~vbs:bias.vbs in
  let veff = bias.vgs -. vth in
  let vdsat = smooth_overdrive ~n veff in
  let region = classify ~n ~veff ~vdsat ~vds:bias.vds in
  { ids; gm; gds; gmb; vth; veff; vdsat; region }

let region kind p ~l bias =
  let n = slope_factor p ~vbs:bias.vbs in
  let veff = bias.vgs -. threshold kind p ~l ~vbs:bias.vbs in
  classify ~n ~veff ~vdsat:(smooth_overdrive ~n veff) ~vds:bias.vds

(* Content-addressed memo over the full operating-point evaluation — the
   hot path of the sizing plans, which revisit the same designed bias
   points over and over.  The key covers everything the result depends
   on (model card incl. mismatch perturbations, geometry, bias), so a
   hit is bit-identical to recomputation.  The Newton stamps call
   [evaluate_exact] instead: their biases are fresh on almost every
   iterate, and a memo there is pure churn. *)
let eval_memo : (kind * E.mos_params * float * float * bias, eval) Cache.Memo.t =
  Cache.Memo.create ~name:"device.eval" ~shards:16 ~capacity:(1 lsl 17) ()

let evaluate kind p ~w ~l bias =
  if not (Cache.Config.enabled ()) then evaluate_exact kind p ~w ~l bias
  else
    Cache.Memo.find_or_compute eval_memo
      (kind, p, w, l, bias)
      (fun () -> evaluate_exact kind p ~w ~l bias)

let w_for_current kind p ~l ~ids bias =
  assert (ids > 0.0);
  let unit_w = 1e-6 in
  let i1 = drain_current kind p ~w:unit_w ~l bias in
  if i1 <= 0.0 then
    raise (Phys.Numerics.No_convergence "w_for_current: zero current at bias");
  ids /. i1 *. unit_w

let vgs_for_current kind p ~w ~l ~ids ~vds ~vbs =
  assert (ids > 0.0);
  let vth = threshold kind p ~l ~vbs in
  let f vgs = drain_current kind p ~w ~l { vgs; vds; vbs } -. ids in
  Phys.Numerics.brent ~tol:1e-12 ~f (vth -. 0.5) (vth +. 3.0)
