(* A spec point in integer units: GBW in 10 kHz, phase margin in
   hundredths of a degree, load in fF.  Integers keep the specs exact
   through JSON and across the vetting run and the benchmark. *)
type t = { gbw_10khz : int; pm_cdeg : int; cl_ff : int }
