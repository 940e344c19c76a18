(** The timing graph of a design, compiled once per analysis: each
    instance's pin nets and delays, and the combinational instances in
    topological order.

    Delays follow the linear model of {!Cell_lib.Cell.delay_through}:
    intrinsic delay plus drive resistance times the load.  Timing is
    pre-layout, so the load is the pin capacitance of every sink on the
    instance's output nets; no wire capacitance enters a delay. *)

type t = private {
  design : Netlist.Design.t;
  inputs : Netlist.Design.net array array;   (** per instance, input-pin nets *)
  outputs : Netlist.Design.net array array;  (** per instance, output-pin nets *)
  delay_max : float array;
      (** per instance, ns: a gate's propagation delay, a register's clk->q *)
  delay_min : float array;
  order : Netlist.Design.inst array;
      (** combinational instances, drivers before readers *)
}

(** [create d] compiles [d], inside the Obs span [sta.graph.create].
    Raises [Invalid_argument] on a combinational cycle, which
    {!Netlist.Check} reports as [NET-002]. *)
val create : Netlist.Design.t -> t

(** [relax g amax amin i] propagates the arrivals at instance [i]'s
    input nets through its delays to its output nets, when any input
    has an arrival ([amax] above [neg_infinity]); otherwise it does
    nothing.  Both {!forward} and {!Paths.compute} advance arrivals only
    through this step. *)
val relax : t -> float array -> float array -> Netlist.Design.inst -> unit

(** [forward g sources] — the latest and earliest arrival at every net
    when the nets [sources] launch at 0 ([neg_infinity] / [infinity]
    where no source reaches). *)
val forward : t -> Netlist.Design.net list -> float array * float array

(** [backward g sinks] — the longest delay from every net to any of the
    nets [sinks] ([neg_infinity] where none is reached). *)
val backward : t -> Netlist.Design.net list -> float array
