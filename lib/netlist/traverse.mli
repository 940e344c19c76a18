(** Topological traversal of the combinational portion of a design.

    Sources are primary inputs, constants and the outputs of sequential and
    clock-gating cells; only [Combinational] instances are ordered. *)

(** [comb_topo d] returns combinational instances in dependency order
    (drivers before readers), or [Error cycle]: the instances of one
    combinational cycle, in signal order, each driving the next and the
    last driving the first. *)
val comb_topo : Design.t -> (Design.inst list, Design.inst list) result

(** [comb_topo_exn d] raises [Invalid_argument] on a combinational cycle. *)
val comb_topo_exn : Design.t -> Design.inst list

(** [net_levels d] assigns each net a level: sources are 0, the output of
    a combinational instance is 1 + max of its input levels.  Outputs of
    sequential/ICG cells are level 0.  Raises on combinational cycles. *)
val net_levels : Design.t -> int array
