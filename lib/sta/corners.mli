(** Multi-corner timing sign-off: the SMO checks repeated across
    process/voltage/temperature corners, the analysis the paper's
    conclusion points to ("quantifying these benefits associated with
    higher tolerance to PVT variations"). *)

type corner = {
  corner_name : string;
  derate_early : float;  (** scales minimum (hold) path delays *)
  derate_late : float;   (** scales maximum (setup) path delays *)
  skew : float;          (** clock uncertainty at this corner, ns *)
}

(** Typical three-corner set: fast (hold-critical), typical, slow
    (setup-critical). *)
val default_corners : corner list

(** [check_all d ~clocks] — one report per {!default_corners} entry. *)
val check_all :
  Netlist.Design.t -> clocks:Sim.Clock_spec.t -> (corner * Smo.report) list
