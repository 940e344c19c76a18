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

(** [compute g] walks each source's forward cone — each register's
    output, then each non-clock input port — along [net_sinks] to the
    combinational instances of [g.order], relaxes only those instances,
    in topological order, with {!Graph.relax}, and reads the arcs off
    the {!sinks} on the nets the walk reached.  Its cost is the sum of
    the cone sizes (counted as [sta.paths.relaxations], with
    [sta.paths.arcs] for the arcs returned, inside the Obs span
    [sta.paths.compute]), not sources × instances.

    The list is the one a whole-design {!Graph.forward} per source and a
    scan of every sink would build, float bits included: the last
    source's arcs first, and within one source the sinks in reverse
    {!sinks} order. *)
val compute : Graph.t -> path list

(** Longest combinational delay from any source to each net. *)
val forward_arrivals : Graph.t -> float array
