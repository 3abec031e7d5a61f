(* Unboxed real dense kernels on a flat row-major [floatarray].

   This is the specialized hot-path twin of [Dense.Make (Field.Real)]: the
   pivot choice, operation order and singularity threshold are copied
   verbatim from the functor so that both backends produce bit-identical
   results (the functor stays as the reference implementation; the test
   suite asserts agreement bit-for-bit).  Unlike the functor, factorisation
   happens in place and the triangular solves write into caller-provided
   vectors, so a caller that reuses its buffers (see {!Ws}) performs zero
   allocation per solve. *)

module FA = Float.Array

type t = { r : int; c : int; a : floatarray }

let create r c = { r; c; a = FA.make (r * c) 0.0 }
let rows m = m.r
let cols m = m.c
let clear m = FA.fill m.a 0 (m.r * m.c) 0.0

let get m i j = FA.get m.a ((i * m.c) + j)
let set m i j x = FA.set m.a ((i * m.c) + j) x

let add_to m i j x =
  let k = (i * m.c) + j in
  FA.set m.a k (FA.get m.a k +. x)

let add_flat m k x = FA.set m.a k (FA.get m.a k +. x)

let blit ~src ~dst =
  assert (src.r = dst.r && src.c = dst.c);
  FA.blit src.a 0 dst.a 0 (src.r * src.c)

let of_arrays rows_a =
  let r = Array.length rows_a in
  assert (r > 0);
  let c = Array.length rows_a.(0) in
  let m = create r c in
  Array.iteri
    (fun i row ->
      assert (Array.length row = c);
      Array.iteri (fun j x -> FA.set m.a ((i * c) + j) x) row)
    rows_a;
  m

let to_arrays m =
  Array.init m.r (fun i -> Array.init m.c (fun j -> get m i j))

let matvec_into m x ~y =
  assert (Array.length x = m.c && Array.length y = m.r);
  let a = m.a and c = m.c in
  for i = 0 to m.r - 1 do
    let acc = ref 0.0 in
    let base = i * c in
    for j = 0 to c - 1 do
      acc := !acc +. (FA.unsafe_get a (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set y i !acc
  done

(* In-place Doolittle LU with partial pivoting — the flat mirror of
   [Dense.Make(F).lu_factor].  [piv] is an output: it is reset to the
   identity and then records the row permutation.  Raises
   [Dense.Singular k] under exactly the same condition as the functor. *)
let factor_core m ~piv =
  assert (m.r = m.c);
  let n = m.r in
  assert (Array.length piv = n);
  let a = m.a in
  for i = 0 to n - 1 do
    Array.unsafe_set piv i i
  done;
  for k = 0 to n - 1 do
    (* pivot selection *)
    let pivot = ref k and best = ref (Float.abs (FA.unsafe_get a ((k * n) + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (FA.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best < 1e-300 then raise (Dense.Singular k);
    if !pivot <> k then begin
      let p = !pivot in
      for j = 0 to n - 1 do
        let tmp = FA.unsafe_get a ((k * n) + j) in
        FA.unsafe_set a ((k * n) + j) (FA.unsafe_get a ((p * n) + j));
        FA.unsafe_set a ((p * n) + j) tmp
      done;
      let tp = Array.unsafe_get piv k in
      Array.unsafe_set piv k (Array.unsafe_get piv p);
      Array.unsafe_set piv p tp
    end;
    let akk = FA.unsafe_get a ((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = FA.unsafe_get a ((i * n) + k) /. akk in
      FA.unsafe_set a ((i * n) + k) factor;
      if Float.abs factor > 0.0 then
        for j = k + 1 to n - 1 do
          FA.unsafe_set a ((i * n) + j)
            (FA.unsafe_get a ((i * n) + j)
             -. (factor *. FA.unsafe_get a ((k * n) + j)))
        done
    done
  done

let lu_factor_in_place m ~piv =
  if not (Obs.Config.enabled ()) then factor_core m ~piv
  else begin
    Obs.Metrics.incr "linalg.real.factors";
    let t0 = Obs.Clock.monotonic_s () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.add "linalg.real.factor_s" (Obs.Clock.monotonic_s () -. t0))
      (fun () -> factor_core m ~piv)
  end

(* Forward/back substitution into [x] (must not alias [b]); same operation
   order as the functor's [lu_solve]. *)
let lu_solve_into m ~piv ~b ~x =
  let n = m.r in
  assert (Array.length b = n && Array.length x = n && Array.length piv = n);
  if (Obs.Config.enabled ()) then Obs.Metrics.incr "linalg.real.solves";
  let a = m.a in
  for i = 0 to n - 1 do
    Array.unsafe_set x i (Array.unsafe_get b (Array.unsafe_get piv i))
  done;
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let acc = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      acc := !acc -. (FA.unsafe_get a ((i * n) + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !acc
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (FA.unsafe_get a ((i * n) + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. FA.unsafe_get a ((i * n) + i))
  done
