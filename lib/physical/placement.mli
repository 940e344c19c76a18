(** Standard-cell placement: row-based legalized positions refined by a
    few barycenter sweeps.  A light-weight stand-in for the paper's
    commercial place-and-route step — what matters downstream is that
    wire lengths scale with connectivity and die size. *)

type t = {
  x : float array;          (** per instance, um *)
  y : float array;
  die_width : float;
  die_height : float;
  rows : int;
}

(** [place d] — 0.7 utilization, 4 barycenter sweeps. *)
val place : Netlist.Design.t -> t

(** Half-perimeter wire length of a net (driver + sink positions), um. *)
val net_hpwl : Netlist.Design.t -> t -> Netlist.Design.net -> float

val total_wirelength : Netlist.Design.t -> t -> float
