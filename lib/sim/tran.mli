(** Transient analysis: fixed-step backward-Euler integration with a full
    Newton solve per step.  Explicit capacitors use the exact companion
    model; MOS device capacitances are linearised per step at the previous
    time point (adequate for the slew-rate and settling measurements this
    library needs, where the load capacitor dominates).

    The circuit is compiled once per run into a {!Stamps.prog} bound to
    the backend as a transient {!Stamps.system}: node indices, model
    cards, per-device cap constants and, under [Sparse], the CSR slot of
    every Jacobian write are resolved before the first step.  Each step
    then refreshes the capacitor companions ([g = c/dt],
    [i_extra = -g vprev], MOS regions and junction biases at the previous
    point) once, and every Newton iterate of the step only replays the
    compiled stamps and solves.  The accumulation order is that of an
    element-by-element walk (each MOS followed by its g-s, g-d, g-b, d-b,
    s-b companions, gmin last), so results at a fixed [dt] do not depend
    on the compilation.

    Sources follow their [wave] function when present, their DC value
    otherwise.

    Telemetry (when enabled): a [tran.run] span (category [sim]) around
    the run, the counters [sim.tran.steps], [sim.tran.newton_iters] and
    [sim.tran.steps_saved] (steps skipped by a [stop]), and the
    [sim.tran.run_us] histogram.  Results are identical with telemetry
    on or off. *)

type result

val run :
  ?backend:Stamps.backend ->
  ?dt:float ->
  ?guess:(string -> float option) ->
  ?gmin:float ->
  ?stop:string * (float -> float -> bool) ->
  proc:Technology.Process.t ->
  kind:Device.Model.kind ->
  tstop:float ->
  Netlist.Circuit.t -> result
(** Simulate from a DC operating point at t = 0 (computed with sources at
    their [wave 0] / DC values) to [tstop].  [dt] defaults to
    [tstop / 2000].  [backend] selects the linear solver as in
    {!Dcop.solve} (default {!Stamps.default_backend}); [Kernel],
    [Reference] and [Sparse Natural] are bit-identical.  Under [Sparse]
    the companion-circuit pattern and its symbolic factorisation are
    computed once and numerically refactored at every Newton iterate of
    every step.  [gmin] (default [1e-12]) is the conductance to ground
    stamped on every node, both at the t = 0 operating point and during
    integration.

    [stop = (node, p)] is a measurement-aware early stop: after each
    accepted step at time [t], with [v] the node's voltage there
    (ground reads 0), the run ends if [p t v] holds.  The predicate is
    called once per step, in time order, so it may keep state.  A
    stopped result holds the points up to and including that step and
    is a bit-identical prefix of the unstopped run; if [p] never holds,
    the run ends at [tstop] as without [stop]. *)

val times : result -> float array
val waveform : result -> string -> float array
(** Node voltage waveform.  Raises [Invalid_argument] on unknown nodes. *)

val value_at : result -> string -> float -> float
(** Linear interpolation of a node waveform at an arbitrary time (held
    at the end values outside the simulated interval), by binary search
    over the time points without materialising the waveform. *)

val max_slope : result -> string -> float * float
(** [(rising, falling)] maximum d v/d t magnitudes of a node waveform, V/s
    — the slew-rate measurement. *)

val settling_time :
  result -> string -> target:float -> tol:float -> float option
(** First time after which the waveform stays within [tol] of [target]. *)
