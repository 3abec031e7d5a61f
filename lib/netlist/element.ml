let ground = "0"

type source = {
  dc : float;
  ac : float;
  wave : (float -> float) option;
}

let dc_source dc = { dc; ac = 0.0; wave = None }
let ac_source ?(dc = 0.0) ac = { dc; ac; wave = None }
let wave_source ?(dc = 0.0) w = { dc; ac = 0.0; wave = Some w }

let source_value s t = match s.wave with Some w -> w t | None -> s.dc

type t =
  | Mos of { dev : Device.Mos.t; d : string; g : string; s : string; b : string }
  | Resistor of { name : string; p : string; n : string; r : float }
  | Capacitor of { name : string; p : string; n : string; c : float }
  | Isource of { name : string; p : string; n : string; i : source }
  | Vsource of { name : string; p : string; n : string; v : source }

let name = function
  | Mos { dev; _ } -> dev.Device.Mos.name
  | Resistor { name; _ } | Capacitor { name; _ }
  | Isource { name; _ } | Vsource { name; _ } -> name

let nodes_of = function
  | Mos { d; g; s; b; _ } -> [ d; g; s; b ]
  | Resistor { p; n; _ } | Capacitor { p; n; _ }
  | Isource { p; n; _ } | Vsource { p; n; _ } -> [ p; n ]

let pp_spice fmt t =
  match t with
  | Mos { dev; d; g; s; b } ->
    let module M = Device.Mos in
    let mtype =
      match dev.M.mtype with
      | Technology.Electrical.Nmos -> "nch"
      | Technology.Electrical.Pmos -> "pch"
    in
    Format.fprintf fmt "M%s %s %s %s %s %s W=%.4gu L=%.4gu NF=%d"
      dev.M.name d g s b mtype
      (dev.M.w *. 1e6) (dev.M.l *. 1e6) dev.M.style.Device.Folding.nf;
    begin match dev.M.diffusion with
    | None -> ()
    | Some geom ->
      let module F = Device.Folding in
      Format.fprintf fmt " AD=%.4gp AS=%.4gp PD=%.4gu PS=%.4gu"
        (geom.F.ad *. 1e12) (geom.F.as_ *. 1e12)
        (geom.F.pd *. 1e6) (geom.F.ps *. 1e6)
    end
  | Resistor { name; p; n; r } ->
    Format.fprintf fmt "R%s %s %s %.6g" name p n r
  | Capacitor { name; p; n; c } ->
    Format.fprintf fmt "C%s %s %s %.6gf" name p n (c *. 1e15)
  | Isource { name; p; n; i } ->
    Format.fprintf fmt "I%s %s %s DC %.6g AC %.6g" name p n i.dc i.ac
  | Vsource { name; p; n; v } ->
    Format.fprintf fmt "V%s %s %s DC %.6g AC %.6g" name p n v.dc v.ac
