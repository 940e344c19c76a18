(** The flip-flop reachability graph of Section IV-A of the paper.

    Node [u]'s fanout set [FO(u)] contains the sequential elements whose
    data input is reachable from [u]'s output through combinational logic
    only.  Primary inputs (other than clock ports) are tracked separately
    because the ILP treats them as virtually clocked by phase [p1]. *)

type t = {
  members : Design.inst array;       (** sequential instances, graph position order *)
  position : (Design.inst, int) Hashtbl.t;
  fanout : int list array;           (** position -> fanout positions *)
  fanin : int list array;            (** position -> fanin positions *)
  self_loop : bool array;            (** u in FO(u) *)
  pi_names : string array;           (** non-clock primary inputs *)
  pi_fanout : int list array;        (** PI index -> positions *)
}

val build : Design.t -> t

val size : t -> int

(** Positions of nodes with combinational feedback onto themselves. *)
val self_loop_count : t -> int
