module R = Linalg.Real
module Df = Linalg.Dense_f
module Mdl = Device.Model
module El = Netlist.Element
module E = Technology.Electrical

type backend = Kernel | Reference | Sparse of Linalg.Sparse.ordering

let backend_of_string s =
  match String.lowercase_ascii s with
  | "kernel" -> Ok Kernel
  | "reference" -> Ok Reference
  | "sparse" | "sparse-min-degree" -> Ok (Sparse Linalg.Sparse.Min_degree)
  | "sparse-natural" -> Ok (Sparse Linalg.Sparse.Natural)
  | _ ->
    Error
      (Printf.sprintf
         "unknown backend %S (expected kernel, reference, sparse or \
          sparse-natural)" s)

let backend_name = function
  | Kernel -> "kernel"
  | Reference -> "reference"
  | Sparse Linalg.Sparse.Min_degree -> "sparse"
  | Sparse Linalg.Sparse.Natural -> "sparse-natural"

(* Default backend, selectable without code changes (LOSAC_BACKEND /
   --backend / Exec.Ctx); unrecognized env values fall back to [Kernel]
   like the other LOSAC_* switches.  Resolution order inside an
   analysis: explicit [?backend] > context-local binding
   ([with_default_backend], domain-local) > [global] > [Kernel]. *)
let global : backend ref =
  ref
    (match Sys.getenv_opt "LOSAC_BACKEND" with
     | Some s -> (match backend_of_string s with Ok b -> b | Error _ -> Kernel)
     | None -> Kernel)

let local : backend Obs.Fluid.t = Obs.Fluid.make ()

let default_backend () =
  match Obs.Fluid.get local with Some b -> b | None -> !global

let set_default_backend b = global := b

let with_default_backend b f = Obs.Fluid.with_value local b f

type smat = { spat : Linalg.Sparse.pattern; svals : float array }

type mat = Unboxed of Df.t | Boxed of R.t | Csr of smat

type ctx = {
  jac : mat;
  f : float array;
  x : float array;
}

let device_bias dev ~vd ~vg ~vs ~vb =
  let sgn = Technology.Electrical.mos_type_sign dev.Device.Mos.mtype in
  { Mdl.vgs = sgn *. (vg -. vs);
    vds = sgn *. (vd -. vs);
    vbs = sgn *. (vb -. vs) }

(* ------------------------------------------------------------------ *)
(* Compiled stamp programs                                             *)
(* ------------------------------------------------------------------ *)

(* The per-device constants of the transient's cap linearisation (the
   work [Device.Op.compute] redoes on every call): the Meyer gate caps of
   each of the four regions, and the card and diffusion geometry of the
   two junction caps. *)
type mcaps = {
  gate : float array;  (* cgs, cgd, cgb for Cutoff, Weak, Triode, Saturation *)
  jcard : E.mos_params;
  ad : float;
  as_ : float;
  pd : float;
  ps : float;
}

(* The circuit walk with every node name resolved to its MNA index
   (-1 = ground) and the per-device model card fetched once, so Newton
   iterates touch only int indices and flat buffers.  [s] is an
   element's first entry in the slot table (its Jacobian writes, in stamp
   order); [k] its first companion (a capacitor has one, a MOS five) and
   [mc] its cap constants, both only in a transient program. *)
type pelem =
  | P_resistor of { pi : int; ni : int; g : float; s : int }
  | P_cap of { pi : int; ni : int; c : float; k : int }
  | P_isource of { pi : int; ni : int; src : El.source }
  | P_vsource of { row : int; pi : int; ni : int; src : El.source; s : int }
  | P_mos of {
      dev : Device.Mos.t;
      card : E.mos_params;
      sgn : float;
      di : int;
      gi : int;
      si : int;
      bi : int;
      s : int;
      k : int;
      mc : mcaps option;
    }

type prog = {
  elems : pelem array;
  transient : bool;
  cp : int array;  (* companion endpoints, in stamp order; empty at DC *)
  cn : int array;
  nslots : int;  (* element writes; companion [k]'s four follow at [nslots + 4k] *)
}

let regions = [ Mdl.Cutoff; Mdl.Weak; Mdl.Triode; Mdl.Saturation ]

let region_index = function
  | Mdl.Cutoff -> 0
  | Mdl.Weak -> 1
  | Mdl.Triode -> 2
  | Mdl.Saturation -> 3

(* The constants [Device.Op.compute] derives per call: Meyer caps from the
   process card, junctions from the as-drawn diffusion (with the device's
   card) when the extractor supplied one, from the folding geometry
   otherwise. *)
let mos_caps proc (dev : Device.Mos.t) =
  let pcard =
    match dev.Device.Mos.mtype with
    | E.Nmos -> proc.Technology.Process.electrical.E.nmos
    | E.Pmos -> proc.Technology.Process.electrical.E.pmos
  in
  let meyer region =
    let c =
      Device.Caps.meyer pcard ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l
        ~nf:dev.Device.Mos.style.Device.Folding.nf ~region
    in
    Device.Caps.[ c.cgs; c.cgd; c.cgb ]
  in
  let g = Device.Mos.diffusion_geom proc dev in
  { gate = Array.of_list (List.concat_map meyer regions);
    jcard =
      (match dev.Device.Mos.diffusion with
       | None -> pcard
       | Some _ -> Device.Mos.params proc dev);
    ad = g.Device.Folding.ad;
    as_ = g.Device.Folding.as_;
    pd = g.Device.Folding.pd;
    ps = g.Device.Folding.ps }

let compile ?(transient = false) proc idx circuit =
  let ridx name =
    match Indexing.node_index idx name with None -> -1 | Some i -> i
  in
  let nslots = ref 0 and comps = ref [] and ncomp = ref 0 in
  let take n =
    let s = !nslots in
    nslots := s + n;
    s
  in
  let comp p n =
    if not transient then -1
    else begin
      comps := (p, n) :: !comps;
      Stdlib.incr ncomp;
      !ncomp - 1
    end
  in
  let elem = function
    | El.Resistor { p; n; r; _ } ->
      P_resistor { pi = ridx p; ni = ridx n; g = 1.0 /. r; s = take 4 }
    | El.Capacitor { p; n; c; _ } ->
      let pi = ridx p and ni = ridx n in
      P_cap { pi; ni; c; k = comp pi ni }
    | El.Isource { p; n; i; _ } -> P_isource { pi = ridx p; ni = ridx n; src = i }
    | El.Vsource { name; p; n; v; _ } ->
      P_vsource
        { row = Indexing.vsource_index idx name;
          pi = ridx p;
          ni = ridx n;
          src = v;
          s = take 4 }
    | El.Mos { dev; d; g; s; b } ->
      let di = ridx d and gi = ridx g and si = ridx s and bi = ridx b in
      let s = take 8 in
      (* the five cap pairs in stamp order: g-s, g-d, g-b, d-b, s-b *)
      let k = comp gi si in
      ignore (comp gi di);
      ignore (comp gi bi);
      ignore (comp di bi);
      ignore (comp si bi);
      P_mos
        { dev;
          card = Device.Mos.params proc dev;
          sgn = E.mos_type_sign dev.Device.Mos.mtype;
          di; gi; si; bi; s; k;
          mc = (if transient then Some (mos_caps proc dev) else None) }
  in
  let elems = Array.of_list (List.map elem (Netlist.Circuit.elements circuit)) in
  let cp, cn = Array.split (Array.of_list (List.rev !comps)) in
  { elems; transient; cp; cn; nslots = !nslots }

(* ------------------------------------------------------------------ *)
(* Sparse patterns and slot tables                                     *)
(* ------------------------------------------------------------------ *)

(* [writes f pe] calls [f m i j] for the [m]-th Jacobian write of a
   stamp, in stamp order (ground-skipped pairs included, to be resolved
   to -1). *)
let quad f pi ni =
  f 0 pi pi;
  f 1 pi ni;
  f 2 ni ni;
  f 3 ni pi

let writes f = function
  | P_resistor { pi; ni; _ } -> quad f pi ni
  | P_cap _ | P_isource _ -> ()
  | P_vsource { row; pi; ni; _ } ->
    f 0 pi row;
    f 1 ni row;
    f 2 row pi;
    f 3 row ni
  | P_mos { di; gi; si; bi; _ } ->
    f 0 di gi;
    f 1 di di;
    f 2 di bi;
    f 3 di si;
    f 4 si gi;
    f 5 si di;
    f 6 si bi;
    f 7 si si

(* A transient program's pattern adds every position the backward-Euler
   companions can reach — capacitor quads and the five MOS cap-pair
   quads, unconditionally: a bias-dependent capacitance may be zero at
   one time step and nonzero at the next, and the pattern is frozen for
   the whole run. *)
let pattern idx prog =
  let acc = ref [] in
  let put _ i j = if i >= 0 && j >= 0 then acc := (i, j) :: !acc in
  Array.iter (writes put) prog.elems;
  Array.iteri (fun k p -> quad put p prog.cn.(k)) prog.cp;
  for i = 0 to Indexing.node_count idx - 1 do
    acc := (i, i) :: !acc
  done;
  Linalg.Sparse.of_coords ~n:(Indexing.size idx) !acc

(* Where each write lands: the row-major position in a dense matrix of
   order [n], or the CSR slot of a pattern; -1 for a ground-skipped
   write. *)
type layout = Dense of int | Slots of Linalg.Sparse.pattern

let slot layout i j =
  if i < 0 || j < 0 then -1
  else
    match layout with
    | Dense n -> (i * n) + j
    | Slots pat -> Linalg.Sparse.slot_exn pat i j

let slot_table layout prog =
  let tbl = Array.make (prog.nslots + (4 * Array.length prog.cp)) (-1) in
  let fill s m i j = tbl.(s + m) <- slot layout i j in
  Array.iter
    (fun pe ->
      match pe with
      | P_resistor { s; _ } | P_vsource { s; _ } | P_mos { s; _ } ->
        writes (fill s) pe
      | P_cap _ | P_isource _ -> ())
    prog.elems;
  Array.iteri (fun k p -> quad (fill (prog.nslots + (4 * k))) p prog.cn.(k)) prog.cp;
  tbl

(* ------------------------------------------------------------------ *)
(* Systems: a program bound to a backend's buffers                     *)
(* ------------------------------------------------------------------ *)

type lin =
  | L_kernel of Linalg.Ws.real
  | L_boxed
  | L_csr of { sm : smat; fact : Linalg.Sparse.Real.t; md : bool }

type system = {
  n : int;  (* unknowns *)
  prog : prog;
  tbl : int array;
  dslots : int array;  (* gmin diagonal per node row *)
  lin : lin;
  fallbacks : string;  (* pivot-fallback metric *)
  cg : float array;  (* companion conductance [c/dt], per companion *)
  cx : float array;  (* companion current offset [-g vprev] *)
  con : bool array;  (* companion stamped this step ([c > 0] for MOS pairs) *)
}

let system backend idx prog =
  let n = Indexing.size idx in
  let layout, lin =
    match backend with
    | Kernel -> (Dense n, L_kernel (Linalg.Ws.real n))
    | Reference -> (Dense n, L_boxed)
    | Sparse ordering ->
      (* the symbolic analysis is shared by every iterate of the system *)
      let spat = pattern idx prog in
      ( Slots spat,
        L_csr
          { sm = { spat; svals = Array.make (Linalg.Sparse.nnz spat) 0.0 };
            fact = Linalg.Sparse.Real.create (Linalg.Sparse.symbolic ordering spat);
            md = ordering = Linalg.Sparse.Min_degree } )
  in
  let nc = Array.length prog.cp in
  { n;
    prog;
    tbl = slot_table layout prog;
    dslots = Array.init (Indexing.node_count idx) (fun i -> slot layout i i);
    lin;
    fallbacks = (if prog.transient then "sim.tran.pivot_fallbacks" else "sim.dcop.pivot_fallbacks");
    cg = Array.make nc 0.0;
    cx = Array.make nc 0.0;
    con = Array.make nc false }

let iterate sys x =
  let n = sys.n in
  assert (Array.length x = n);
  match sys.lin with
  | L_kernel ws ->
    Df.clear ws.Linalg.Ws.jac;
    Array.fill ws.Linalg.Ws.rhs 0 n 0.0;
    { jac = Unboxed ws.Linalg.Ws.jac; f = ws.Linalg.Ws.rhs; x }
  | L_boxed -> { jac = Boxed (R.create n n); f = Array.make n 0.0; x }
  | L_csr { sm; _ } ->
    let f = (Linalg.Ws.sparse_real n).Linalg.Ws.srhs in
    Array.fill sm.svals 0 (Array.length sm.svals) 0.0;
    Array.fill f 0 n 0.0;
    { jac = Csr sm; f; x }

let solve sys ctx =
  let n = sys.n in
  let f = ctx.f in
  (* the right-hand side is -f: negate the residual buffer in place *)
  let negate () =
    for i = 0 to n - 1 do
      Array.unsafe_set f i (-.(Array.unsafe_get f i))
    done
  in
  match sys.lin, ctx.jac with
  | L_kernel w, Unboxed m ->
    negate ();
    Df.lu_factor_in_place m ~piv:w.Linalg.Ws.piv;
    Df.lu_solve_into m ~piv:w.Linalg.Ws.piv ~b:w.Linalg.Ws.rhs
      ~x:w.Linalg.Ws.delta;
    w.Linalg.Ws.delta
  | L_boxed, Boxed m -> R.solve m (Array.map (fun v -> -.v) f)
  | L_csr { sm; fact; md }, Csr _ ->
    negate ();
    let sws = Linalg.Ws.sparse_real n in
    let fallback () =
      (* the static pivot order failed numerically at this iterate — a
         zero pivot (e.g. exact cancellation across a 0 V feedback
         source) or overflow through a tiny one; retry the same values
         under the pivoting natural-order factor of the same pattern *)
      if Obs.Config.enabled () then Obs.Metrics.incr sys.fallbacks;
      let nfact =
        Linalg.Sparse.Real.create
          (Linalg.Sparse.symbolic Linalg.Sparse.Natural sm.spat)
      in
      Linalg.Sparse.Real.refactor nfact ~vals:sm.svals;
      Linalg.Sparse.Real.solve_into nfact ~b:f ~x:sws.Linalg.Ws.sdelta
    in
    (try
       Linalg.Sparse.Real.refactor fact ~vals:sm.svals;
       Linalg.Sparse.Real.solve_into fact ~b:f ~x:sws.Linalg.Ws.sdelta
     with Linalg.Singular _ when md -> fallback ());
    if md && not (Array.for_all Float.is_finite sws.Linalg.Ws.sdelta) then
      fallback ();
    sws.Linalg.Ws.sdelta
  | (L_kernel _ | L_boxed | L_csr _), _ ->
    invalid_arg "Stamps.solve: context of another system"

(* ------------------------------------------------------------------ *)
(* Stamping                                                            *)
(* ------------------------------------------------------------------ *)

let xat ctx i = if i < 0 then 0.0 else Array.unsafe_get ctx.x i

let fadd ctx i v =
  if i >= 0 then ctx.f.(i) <- ctx.f.(i) +. v

(* The single accumulation primitive of every backend: all stamps write
   through here in the same order, so the three matrix representations
   see the same sequence of additions per position and stay
   bit-identical. *)
let jadd ctx k v =
  if k >= 0 then
    match ctx.jac with
    | Unboxed m -> Df.add_flat m k v
    | Csr { svals; _ } -> Array.unsafe_set svals k (Array.unsafe_get svals k +. v)
    | Boxed m ->
      let n = R.cols m in
      R.add_to m (k / n) (k mod n) v

(* Linear branch: current [g (vp - vn) + i_extra] from p to n. *)
let conductor ctx tbl s pi ni g i_extra =
  let i = (g *. (xat ctx pi -. xat ctx ni)) +. i_extra in
  fadd ctx pi i;
  fadd ctx ni (-.i);
  jadd ctx tbl.(s) g;
  jadd ctx tbl.(s + 1) (-.g);
  jadd ctx tbl.(s + 2) g;
  jadd ctx tbl.(s + 3) (-.g)

(* One Newton iterate of the whole circuit: element order, each MOS
   followed by its cap companions (when [companions]), gmin last. *)
let walk kind sys ctx ~gmin ~value ~companions =
  let tbl = sys.tbl and nslots = sys.prog.nslots in
  let comp k pi ni =
    if sys.con.(k) then
      conductor ctx tbl (nslots + (4 * k)) pi ni sys.cg.(k) sys.cx.(k)
  in
  Array.iter
    (fun pe ->
      match pe with
      | P_resistor { pi; ni; g; s } -> conductor ctx tbl s pi ni g 0.0
      | P_cap { pi; ni; k; _ } -> if companions then comp k pi ni
      | P_isource { pi; ni; src } ->
        let v = value src in
        fadd ctx pi v;
        fadd ctx ni (-.v)
      | P_vsource { row = k; pi; ni; src; s } ->
        fadd ctx pi ctx.x.(k);
        fadd ctx ni (-.(ctx.x.(k)));
        jadd ctx tbl.(s) 1.0;
        jadd ctx tbl.(s + 1) (-1.0);
        ctx.f.(k) <- xat ctx pi -. xat ctx ni -. value src;
        jadd ctx tbl.(s + 2) 1.0;
        jadd ctx tbl.(s + 3) (-1.0)
      | P_mos { dev; card; sgn; di; gi; si; bi; s; k; _ } ->
        let vd = xat ctx di
        and vg = xat ctx gi
        and vs = xat ctx si
        and vb = xat ctx bi in
        let bias =
          { Mdl.vgs = sgn *. (vg -. vs);
            vds = sgn *. (vd -. vs);
            vbs = sgn *. (vb -. vs) }
        in
        (* deliberately the unmemoized entry point: Newton iterates
           produce a fresh bias almost every call, so a memo here is all
           misses and LRU churn *)
        let e =
          Mdl.evaluate_exact kind card ~w:dev.Device.Mos.w ~l:dev.Device.Mos.l
            bias
        in
        let id_phys = sgn *. e.Mdl.ids in
        fadd ctx di id_phys;
        fadd ctx si (-.id_phys);
        (* dI_D/dvg = gm, /dvd = gds, /dvb = gmb, /dvs = -(gm + gds + gmb):
           the polarity signs cancel, so the entries are identical for
           both types *)
        let gm = e.Mdl.gm and gds = e.Mdl.gds and gmb = e.Mdl.gmb in
        let gs = -.(gm +. gds +. gmb) in
        jadd ctx tbl.(s) gm;
        jadd ctx tbl.(s + 1) gds;
        jadd ctx tbl.(s + 2) gmb;
        jadd ctx tbl.(s + 3) gs;
        jadd ctx tbl.(s + 4) (-.gm);
        jadd ctx tbl.(s + 5) (-.gds);
        jadd ctx tbl.(s + 6) (-.gmb);
        jadd ctx tbl.(s + 7) (-.gs);
        if companions then begin
          comp k gi si;
          comp (k + 1) gi di;
          comp (k + 2) gi bi;
          comp (k + 3) di bi;
          comp (k + 4) si bi
        end)
    sys.prog.elems;
  for i = 0 to Array.length sys.dslots - 1 do
    ctx.f.(i) <- ctx.f.(i) +. (gmin *. ctx.x.(i));
    jadd ctx sys.dslots.(i) gmin
  done

let run kind sys ctx ~gmin ~alpha =
  walk kind sys ctx ~gmin ~value:(fun src -> alpha *. src.El.dc)
    ~companions:false

let run_tran kind sys ctx ~gmin ~time =
  walk kind sys ctx ~gmin ~value:(fun src -> El.source_value src time)
    ~companions:true

(* Backward-Euler companions, i = (c/dt) (v - v_prev), linearised at the
   previous time point: explicit capacitors always, each MOS cap pair
   when its capacitance at the previous bias is positive. *)
let refresh_companions kind sys ~dt ~prev =
  let pv i = if i < 0 then 0.0 else prev.(i) in
  let set k c =
    let g = c /. dt in
    sys.cg.(k) <- g;
    sys.cx.(k) <- -.g *. (pv sys.prog.cp.(k) -. pv sys.prog.cn.(k));
    sys.con.(k) <- true
  in
  let pair k c = if c > 0.0 then set k c else sys.con.(k) <- false in
  Array.iter
    (fun pe ->
      match pe with
      | P_cap { c; k; _ } -> set k c
      | P_mos { dev; card; di; gi; si; bi; k; mc = Some mc; _ } ->
        let bias = device_bias dev ~vd:(pv di) ~vg:(pv gi) ~vs:(pv si) ~vb:(pv bi) in
        let r = 3 * region_index (Mdl.region kind card ~l:dev.Device.Mos.l bias) in
        let junction ~area ~perim ~vrev =
          Device.Caps.junction_cap ~cj:mc.jcard.E.cj ~cjsw:mc.jcard.E.cjsw
            ~mj:mc.jcard.E.mj ~mjsw:mc.jcard.E.mjsw ~pb:mc.jcard.E.pb ~area
            ~perim ~vrev
        in
        pair k mc.gate.(r);
        pair (k + 1) mc.gate.(r + 1);
        pair (k + 2) mc.gate.(r + 2);
        pair (k + 3)
          (junction ~area:mc.ad ~perim:mc.pd
             ~vrev:(Float.abs (bias.Mdl.vds -. bias.Mdl.vbs)));
        pair (k + 4)
          (junction ~area:mc.as_ ~perim:mc.ps ~vrev:(Float.abs bias.Mdl.vbs))
      | P_mos { mc = None; _ } | P_resistor _ | P_isource _ | P_vsource _ -> ())
    sys.prog.elems
