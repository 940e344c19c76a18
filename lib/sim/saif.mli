(** Switching activity in SAIF form: the hand-off from a simulation run
    to an external power tool. *)

(** [render design ~toggles ~duration] lists every net of [design] with
    its toggle count [toggles.(net)], busiest first (ties in net order),
    under a [DURATION] of [duration] cycles.  For a {!Kernel} run pass
    {!Kernel.toggles} and {!Kernel.lane_cycles}: the counts summed over
    the lanes, over the lane-cycles they were counted in. *)
val render : Netlist.Design.t -> toggles:int array -> duration:int -> string
