(* Order statistics for latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Percentiles are handled in per-mille so the rank arithmetic is
   exact: the samples strictly above percentile [pm] of [n] are those
   ranked past ceil(n * pm / 1000). *)
let beyond ~n pm = n - (((n * pm) + 999) / 1000)

let min_beyond = 10

(* The percentiles the benchmark reports, in per-mille, ascending. *)
let percentiles = [ 500; 900 ]

(* The highest of [percentiles] that has at least [min_beyond] samples
   beyond it, if any. *)
let highest_reportable n =
  List.fold_left
    (fun best pm -> if beyond ~n pm >= min_beyond then Some pm else best)
    None percentiles
