(** Compiled MNA stamp programs for the nonlinear analyses (DC Newton
    and transient): residual accumulation (KCL currents leaving each node)
    and Jacobian entries, plus the linear solve of each Newton iterate.
    The AC analysis uses its own complex assembly.

    A circuit is compiled once per analysis into a {!prog} (node names
    resolved to MNA indices, model cards and per-device cap constants
    fetched), then bound to a backend's buffers as a {!system} whose
    slot table maps every Jacobian write to its position: row-major in
    the unboxed kernel matrix ({!Linalg.Dense_f}, the default hot path,
    a reusable per-domain workspace) and in the boxed functor matrix
    ({!Linalg.Real}, the reference), the CSR slot under [Sparse].  All
    backends receive the identical sequence of accumulations, so [Kernel],
    [Reference] and [Sparse Natural] agree bit-for-bit. *)

type backend = Kernel | Reference | Sparse of Linalg.Sparse.ordering
(** Solver backend selector threaded through the analyses: [Kernel] is the
    unboxed in-place workspace path, [Reference] the original boxed
    functor path kept for verification and benchmarking baselines, and
    [Sparse] the CSR symbolic/numeric-split solver ({!Linalg.Sparse}) —
    [Sparse Natural] is bit-identical to [Kernel], [Sparse Min_degree]
    is the fill-reducing performance mode. *)

val backend_of_string : string -> (backend, string) result
(** Parse ["kernel"], ["reference"], ["sparse"] (min-degree) or
    ["sparse-natural"] (case-insensitive). *)

val backend_name : backend -> string

val default_backend : unit -> backend
(** The effective default backend used when an analysis gets no
    explicit [?backend]: the calling domain's context-local binding
    ({!with_default_backend}) if one is active, the process-wide
    global otherwise.  Resolution order:
    {e [?backend] override > ctx binding > global > [Kernel]}.
    The global is initialised from [LOSAC_BACKEND] ([Kernel]
    when unset or unrecognized). *)

val set_default_backend : backend -> unit
(** Set the process-global fallback (CLI startup, [--backend]). *)

val with_default_backend : backend -> (unit -> 'a) -> 'a
(** Context-local override of the default backend on the calling domain
    (exception-safe; never touches the global).  Propagated to pool
    worker domains per batch by [Par.Pool]. *)

type smat = { spat : Linalg.Sparse.pattern; svals : float array }
(** A stamped sparse matrix: the natural-order CSR pattern of the
    circuit plus its slot-indexed value array. *)

type mat =
  | Unboxed of Linalg.Dense_f.t
  | Boxed of Linalg.Real.t
  | Csr of smat

type ctx = {
  jac : mat;
  f : float array;
  x : float array;  (** current iterate *)
}

val device_bias :
  Device.Mos.t -> vd:float -> vg:float -> vs:float -> vb:float -> Device.Model.bias
(** Internal-polarity bias of a MOS from its node voltages. *)

type prog
(** A compiled stamp program: the circuit walk with every node name
    resolved to its MNA index and per-device model cards fetched once,
    so Newton iterates perform no string-map lookups.  Capacitors are
    open at DC.  A transient program also records each capacitor and
    each of the five MOS cap pairs (g-s, g-d, g-b, d-b, s-b) as a
    backward-Euler companion, and the constants of each MOS's cap
    linearisation (Meyer gate caps per region, junction card and
    diffusion geometry). *)

val compile :
  ?transient:bool -> Technology.Process.t -> Indexing.t -> Netlist.Circuit.t -> prog
(** Resolve the circuit against the indexing, for a DC analysis or, with
    [transient] (default [false]), for a transient one.  Raises like
    {!Indexing.vsource_index} on a voltage source it does not know. *)

val pattern : Indexing.t -> prog -> Linalg.Sparse.pattern
(** Every Jacobian position a Newton iterate of the program can touch,
    including the gmin node diagonals and, for a transient program,
    every companion position — unconditionally, so the pattern stays
    frozen for the whole run whatever the bias-dependent capacitances
    do. *)

type system
(** A program bound to one backend: its slot table, the iterate buffers
    (the calling domain's {!Linalg.Ws} workspace under [Kernel], a CSR
    value array and a numeric factor over the program's pattern under
    [Sparse], whose symbolic analysis every iterate shares) and, for a
    transient program, the companion state of the current step. *)

val system : backend -> Indexing.t -> prog -> system
(** Bind a program: its slot table and, under [Sparse], the symbolic
    analysis of its {!pattern}. *)

val iterate : system -> float array -> ctx
(** A zeroed stamping context around iterate [x] over the system's
    buffers: repeated iterates re-stamp the same arrays ([Reference]
    allocates a fresh boxed matrix per iterate). *)

val run : Device.Model.kind -> system -> ctx -> gmin:float -> alpha:float -> unit
(** Stamp one DC Newton iterate: residual and Jacobian of the full
    circuit at the context's [x], with every independent source at its
    DC value scaled by [alpha], capacitors open and [gmin] to ground on
    every node. *)

val refresh_companions :
  Device.Model.kind -> system -> dt:float -> prev:float array -> unit
(** Linearise a transient program's capacitors for the step after the
    accepted point [prev]: every companion gets [g = c/dt] and
    [i_extra = -g vprev], with MOS capacitances taken at [prev]'s bias
    (region by
    {!Device.Model.region}, junctions at its reverse biases) and a MOS
    pair left out of the step when its capacitance is not positive.
    Called once per time step, not per Newton iterate. *)

val run_tran : Device.Model.kind -> system -> ctx -> gmin:float -> time:float -> unit
(** Stamp one Newton iterate of a transient program at [time]: the
    {!run} walk with sources at their [wave time] value (DC value when
    they have none),
    each capacitor's companion in element order and each MOS's five
    companions right after its drain-current stamp, gmin last.  This
    order is part of the contract: it fixes the floating-point sum at
    every Jacobian position, and the pinned results depend on it. *)

val solve : system -> ctx -> float array
(** Solve the stamped iterate for the Newton update [J delta = -f]:
    in-place LU into the workspace under [Kernel], a boxed solve under
    [Reference], a numeric refactor over the frozen pattern under
    [Sparse].  Under [Sparse Min_degree] a numerically failed static
    pivot order (zero pivot, non-finite update) is retried under the
    pivoting natural order of the same pattern, counted as
    [sim.dcop.pivot_fallbacks] or [sim.tran.pivot_fallbacks].  The
    returned array is the system's buffer, valid until the next solve.
    Raises [Linalg.Singular]. *)
