(** Register-to-register path delays through combinational logic.

    For every pair (source register j, destination register i) connected by
    a purely combinational path, computes the longest and shortest path
    delays (the paper's Delta_ji and delta_ji).  Sources also include
    non-clock primary inputs; destinations also include primary outputs. *)

type endpoint =
  | Reg of Netlist.Design.inst
  | Port of string

type path = {
  src : endpoint;
  dst : endpoint;
  max_delay : float;  (** ns, excluding source clk->q, including all gates *)
  min_delay : float;
}

(** Where paths end: each register's data pin, then each output port. *)
val sinks : Netlist.Design.t -> (endpoint * Netlist.Design.net) list

(** [compute g] sweeps the graph forward once per source: each
    register's output, then each non-clock input port. *)
val compute : Graph.t -> path list

(** Longest combinational delay from any source to each net. *)
val forward_arrivals : Graph.t -> float array
