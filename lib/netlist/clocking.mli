(** Clock-network tracing: walk a clock pin's net back to its root port,
    through clock buffers, inverters and integrated clock-gating cells. *)

type path_element =
  | Through_icg of Design.inst
  | Through_buffer of Design.inst   (** buffer or inverter on the clock path *)

type trace = {
  root_port : string;               (** the primary-input clock port *)
  elements : path_element list;     (** root-to-leaf order *)
}

(** [trace_to_root d net] walks backwards from [net].  Returns [None] when
    the net does not originate at a clock port (e.g. a generated clock from
    ordinary logic, which this project treats as unsupported). *)
val trace_to_root : Design.t -> Design.net -> trace option

(** The ICG instance directly gating [net], if any (the last ICG on the
    path from the root). *)
val gating_icg : Design.t -> Design.net -> Design.inst option

(** The clock network: every net reached from the declared clock ports
    through ICG clock pins and single-input cells (buffers and
    inverters), stopping at register clock pins and every other pin. *)
type network = {
  insts : Design.inst array;
  (** the buffers, inverters and ICGs walked, breadth-first from the
      clock ports in declaration order: the order both simulators
      propagate a clock event in *)
  has_net : Design.net -> bool;  (** membership of the network's nets *)
}

val network : Design.t -> network

(** [root_port d i] is the clock port that the clock pin of register or
    clock gate [i] traces to ({!trace_to_root}'s [root_port]); [None]
    when the pin is unconnected or does not trace to a clock port. *)
val root_port : Design.t -> Design.inst -> string option
