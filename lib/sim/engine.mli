(** Event-driven gate-level simulator.

    The engine is cycle-oriented: {!run_cycle} applies primary-input values
    just after the cycle-start clock event, then processes every clock
    event of the period.  Within an event, flip-flop captures are
    simultaneous (all rising-edge FFs sample their pre-event data), then
    the data network settles event-driven.  Latches are level-sensitive:
    they follow their data input while transparent and hold while opaque.
    Integrated clock-gating cells model the paper's three styles, including
    the M1 variant whose internal latch is clocked by [p3] and the
    latch-less M2 variant (which therefore propagates enable glitches —
    exactly the hazard the paper's condition rules out).

    Per-net toggle counts are accumulated for activity-driven clock gating
    and power estimation. *)

type t

exception Oscillation of string
(** Raised when the data network fails to settle (a combinational loop
    through transparent latches). *)

(** [create ?init design ~clocks] compiles the design.  [`Zero] (default)
    starts every sequential state at 0, as if a global reset had been
    applied; [`X] starts unknown. *)
val create : ?init:[ `Zero | `X ] -> Netlist.Design.t -> clocks:Clock_spec.t -> t

val design : t -> Netlist.Design.t

(** [run_cycle t inputs] simulates one full clock period and returns the
    primary-output values sampled at the end of the cycle.  [inputs] maps
    non-clock primary inputs; unlisted inputs keep their previous value.
    Raises [Invalid_argument] on unknown input names. *)
val run_cycle : t -> (string * Logic.t) list -> (string * Logic.t) list

(** [run_stream t stream] runs one cycle per element and collects the
    output samples. *)
val run_stream : t -> (string * Logic.t) list list -> (string * Logic.t) list list

val net_value : t -> Netlist.Design.net -> Logic.t

val cycles : t -> int

(** Committed 0<->1 transition count per net since creation. *)
val toggles : t -> int array
