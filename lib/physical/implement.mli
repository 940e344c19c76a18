(** The "physical design" step of the flow: place, estimate routing, and
    synthesize clock trees.  Bundles what the power model needs. *)

type t = {
  design : Netlist.Design.t;
  placement : Placement.t;
  clock_tree : Clock_tree.t;
  wire : Netlist.Design.net -> float;  (** routed wire capacitance, fF *)
  total_wirelength : float;   (** um, signal nets *)
  cell_area : float;          (** um^2, netlist cells *)
  total_area : float;         (** cells + clock-tree buffers *)
}

(** [run d] places [d] at {!Placement.place}'s 0.7 utilization, then
    estimates wires and synthesizes the clock trees. *)
val run : Netlist.Design.t -> t
