(** Circuit elements.  Nodes are net names; ["0"] (= {!ground}) is the
    reference node.  Sources carry a DC value, an AC magnitude (used by the
    AC and noise analyses) and an optional transient waveform. *)

val ground : string

type source = {
  dc : float;
  ac : float;
  wave : (float -> float) option;
  (** transient value as a function of time; [None] means the DC value *)
}

val dc_source : float -> source
val ac_source : ?dc:float -> float -> source
val wave_source : ?dc:float -> (float -> float) -> source

val source_value : source -> float -> float
(** The transient value at a time: [wave t], or [dc] without a waveform. *)

type t =
  | Mos of { dev : Device.Mos.t; d : string; g : string; s : string; b : string }
  | Resistor of { name : string; p : string; n : string; r : float }
  | Capacitor of { name : string; p : string; n : string; c : float }
  | Isource of { name : string; p : string; n : string; i : source }
      (** current flows from [p] through the source to [n] *)
  | Vsource of { name : string; p : string; n : string; v : source }

val name : t -> string
val nodes_of : t -> string list
val pp_spice : Format.formatter -> t -> unit
(** One SPICE card.  MOS cards include W, L, M(=1), AD/AS/PD/PS from the
    effective diffusion geometry. *)
