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

    Launch points are grouped into per-clock-port classes (one path
    relaxation per class), which scales to large designs at the cost of
    slight pessimism: the worst departure of a class is combined with the
    worst path delay of the class.  [~exact:true] makes every register its
    own launch class, removing that pairing pessimism at O(registers)
    relaxations — use it on small designs or for sign-off spot checks. *)

type violation = {
  dst : Netlist.Design.inst;
  kind : [ `Setup | `Hold ];
  slack : float;               (** negative = violated *)
  src_class : string;          (** launching clock port or "input" *)
}

type report = {
  worst_setup_slack : float;
  worst_hold_slack : float;
  violations : violation list;
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

(** [views g ~clocks] — the view of every register, in instance order,
    and apart from them the registers (with their root port) whose root
    port has no waveform in [clocks].  A register whose clock does not
    trace to a port is in neither list ([NET-003] reports it).  Runs
    inside the Obs span [sta.smo.views]. *)
val views :
  Graph.t -> clocks:Sim.Clock_spec.t ->
  reg_view list * (Netlist.Design.inst * string) list

(** The SMO phase shift: time from closing edge [e_from] to the next
    occurrence of closing edge [e_to], in (0, period]. *)
val forward_shift : float -> float -> float -> float

(** [check d ~clocks] — [setup_margin]/[hold_margin] default to 0.03/0.02
    ns.  [input_delay] = (min, max) ns after the cycle start at which
    primary inputs change, the usual external timing constraint; defaults
    to (0.05, 0.10).  [clock_skew] (default 0) tightens both checks by
    the given uncertainty.  [derate] = (early, late) scales minimum and
    maximum path delays for process/voltage/temperature corner analysis
    (e.g. [(0.8, 1.25)]).  Compiles its own {!Graph}. *)
val check :
  ?exact:bool ->
  ?setup_margin:float ->
  ?hold_margin:float ->
  ?input_delay:float * float ->
  ?clock_skew:float ->
  ?derate:float * float ->
  Netlist.Design.t -> clocks:Sim.Clock_spec.t -> report

val pp_report : Format.formatter -> report -> unit
