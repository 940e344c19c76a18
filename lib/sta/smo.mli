(** Multi-phase timing verification after Sakallah-Mudge-Olukotun (the
    paper's Section II).

    Every sequential element is modelled as a latch with an opening and a
    closing time inside the common period (a flip-flop is a zero-width
    latch closing at its capture edge; primary inputs are zero-width
    sources launching at cycle start).  Departure times iterate to a fixed
    point so level-sensitive time borrowing is honoured, then the General
    System Timing Constraints are checked:

    setup:  arrival at latch [i] (relative to its closing edge) + setup <= 0
    hold:   earliest arrival after the previous closing edge >= hold

    Every register launches on its own: the recurrence runs over the
    register-to-register and input-to-register arcs of {!Paths.compute},
    and each arc is timed with its own source's departure and path
    delays. *)

type violation = {
  src : Paths.endpoint;        (** the launching register or input port *)
  dst : Netlist.Design.inst;
  kind : [ `Setup | `Hold ];
  slack : float;               (** negative = violated *)
}

type report = {
  worst_setup_slack : float;
  worst_hold_slack : float;
  violations : violation list;  (** one per violated arc and check *)
  max_borrow : float;          (** worst positive departure (time borrowed) *)
  iterations : int;
}

val ok : report -> bool

(** The timing view of one sequential element, derived from its cell
    kind, the root port of its clock and that port's waveform. *)
type reg_view = {
  inst : Netlist.Design.inst;
  port : string;      (** root clock port (after buffers and ICGs) *)
  close : float;      (** closing-edge time within the period, ns *)
  width : float;      (** transparency window, 0 for flip-flops, ns *)
  clk2q_max : float;  (** ns, under the graph's load *)
  clk2q_min : float;
}

(** One timed arc at the fixed point: a {!Paths} arc into a viewed
    register, from a viewed register or an input port. *)
type arc = {
  src : Paths.endpoint;
  launch : reg_view option;  (** [src]'s view; [None] for an input port *)
  capture : reg_view;
  arrival : float;           (** latest, from [capture]'s closing edge, ns *)
  setup_slack : float;       (** [-. arrival -.] the setup margin *)
  early : float;             (** earliest, after the previous closing edge *)
  hold_margin : float;
  hold_slack : float;        (** [early -. hold_margin] *)
}

(** One analysis of a design: its report, and what lint reads per arc. *)
type t = {
  graph : Graph.t;
  clocks : Sim.Clock_spec.t;
  views : reg_view list;  (** every register whose clock port has a waveform *)
  unclocked : (Netlist.Design.inst * string) list;  (** root port has none *)
  arcs : arc list Lazy.t;
  (** every timed arc, grouped by capturing register in [views] order *)
  converged : bool;
  (** the departure fixed point settled within [registers + 8] sweeps;
      when it did not, the report's worst setup slack is [neg_infinity] *)
  report : report;
}

(** [analyse d ~clocks] compiles a {!Graph} of [d], derives the
    register views (Obs span [sta.smo.views]) and walks its {!Paths},
    inside the Obs span [sta.smo.check].  The setup margin is 0.03 ns
    and primary inputs change (0.05, 0.10) ns (min, max) after the
    cycle start; [hold_margin] defaults to 0.02 ns.  [clock_skew]
    (default 0) tightens both checks by the given uncertainty, except
    the hold check between complementary latches on one clock port (a
    master-slave pair), which share their clock leaf.  [derate] =
    (early, late) scales minimum and maximum path delays for
    process/voltage/temperature corner analysis (e.g. [(0.8, 1.25)]). *)
val analyse :
  ?hold_margin:float ->
  ?clock_skew:float ->
  ?derate:float * float ->
  Netlist.Design.t -> clocks:Sim.Clock_spec.t -> t

(** [check d ~clocks] is the {!report} of {!analyse}. *)
val check :
  ?hold_margin:float ->
  ?clock_skew:float ->
  ?derate:float * float ->
  Netlist.Design.t -> clocks:Sim.Clock_spec.t -> report

val pp_report : Format.formatter -> report -> unit
