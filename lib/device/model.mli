(** MOS compact models.

    Two model kinds are provided, selected at run time so that the sizing
    tool and the simulator always evaluate the *same* equations (the paper
    credits much of COMDIAC's accuracy to sharing transistor models with the
    simulator):

    - {!Level1}: classical square-law with channel-length modulation and
      body effect, extended with an EKV-style smooth weak-inversion
      interpolation so that the DC Newton solver sees a C1 characteristic.
    - {!Bsim_lite}: Level-1 structure with short-channel corrections —
      vertical-field mobility degradation (theta), velocity saturation
      (ecrit) folded into an effective KP, and Vth roll-off with L.

    All equations are written in NMOS polarity with positive [vgs], [vds],
    [vbs <= 0] for reverse body bias; PMOS callers flip signs (see
    {!Electrical.mos_type_sign}).  Negative [vds] is handled by the
    source/drain symmetry swap so that Newton iterations may evaluate the
    model anywhere. *)

type kind = Level1 | Bsim_lite

val kind_to_string : kind -> string

type bias = { vgs : float; vds : float; vbs : float }

type region = Cutoff | Weak | Triode | Saturation

val region_to_string : region -> string

type eval = {
  ids : float;   (** drain current, A (negative when vds < 0) *)
  gm : float;    (** dIds/dVgs, S *)
  gds : float;   (** dIds/dVds, S *)
  gmb : float;   (** dIds/dVbs, S *)
  vth : float;   (** threshold at this body bias, V *)
  veff : float;  (** vgs - vth, V *)
  vdsat : float; (** saturation voltage, V *)
  region : region;
}

val threshold :
  kind -> Technology.Electrical.mos_params -> l:float -> vbs:float -> float
(** Threshold voltage including body effect (and Vth roll-off for
    {!Bsim_lite}). *)

val slope_factor :
  Technology.Electrical.mos_params -> vbs:float -> float
(** Weak-inversion slope factor n = 1 + gamma / (2 sqrt(phi - vbs)). *)

val smooth_overdrive : n:float -> float -> float
(** [smooth_overdrive ~n veff] is the EKV-style smooth effective
    overdrive: [veff] in strong inversion, an exponential with slope
    [1/(n vt)] below threshold.  Equals the model's [vdsat].  Exposed for
    the LUT builder ({!Lut}). *)

val drain_current :
  kind -> Technology.Electrical.mos_params ->
  w:float -> l:float -> bias -> float
(** Large-signal drain current.  Smooth in all terminal voltages. *)

val evaluate :
  kind -> Technology.Electrical.mos_params ->
  w:float -> l:float -> bias -> eval
(** Current plus small-signal conductances (central-difference derivatives
    of {!drain_current}, 1 uV step).

    Evaluations are memoized in a content-addressed cache
    ([device.eval] in {!Cache.Memo.registry}) keyed by the full input —
    model card (including mismatch perturbations), geometry and bias — so
    repeated operating points cost a hash lookup.  The cache stores the
    exact computed record: results are bit-identical with caching on or
    off ({!Cache.Config}). *)

val evaluate_exact :
  kind -> Technology.Electrical.mos_params ->
  w:float -> l:float -> bias -> eval
(** {!evaluate} without the memo — used by benchmarks to measure the
    uncached cost, and by the LUT builder. *)

val region :
  kind -> Technology.Electrical.mos_params -> l:float -> bias -> region
(** The operating region {!evaluate_exact} reports for the bias, without
    the current and conductance evaluations (the transient's per-step cap
    linearisation needs only the region). *)

val w_for_current :
  kind -> Technology.Electrical.mos_params ->
  l:float -> ids:float -> bias -> float
(** Width giving drain current [ids] at the given bias — exact inversion
    since Ids is proportional to W.  This is the inner step of the sizing
    tool's "simple monotonic numerical iterations". *)

val vgs_for_current :
  kind -> Technology.Electrical.mos_params ->
  w:float -> l:float -> ids:float -> vds:float -> vbs:float -> float
(** Gate-source voltage at which the device carries [ids]; bracketed search
    over [vth - 0.5, vth + 3] V.  Raises [Phys.Numerics.No_convergence] when
    [ids] is not reachable. *)
