(** Switching-activity reporting: per-net toggle counts and rates from a
    simulation run, with a SAIF-flavoured text export.  This is the
    artifact the flow's data-driven clock gating consumes and the natural
    hand-off to an external power tool. *)

type entry = {
  net : Netlist.Design.net;
  net_name : string;
  toggles : int;
  rate : float;    (** toggles per cycle *)
}

type t = {
  design_name : string;
  cycles : int;
  entries : entry list;   (** descending by toggle count *)
}

(** Snapshot the engine's counters. *)
val capture : Engine.t -> t

(** Dense per-net toggle array plus the cycle denominator — the shape
    [Power.Estimate.run]'s [~activity] argument expects, so one captured
    activity snapshot can feed both the SAIF export and the power
    estimate. *)
val counts : t -> int array * int

(** Nets quieter than [threshold] toggles/cycle — the DDCG candidates. *)
val quiet_nets : t -> threshold:float -> entry list

(** Mean toggle rate across all nets. *)
val mean_rate : t -> float

(** SAIF-flavoured rendering ([DURATION] in cycles, [TC] toggle counts). *)
val render : t -> string
