(** Netlist rewriting: build the 3-phase latch-based design from a
    flip-flop design and a phase {!Assignment.t} (Section IV-B).

    - Single-latch flip-flops become one active-high latch enabled by [p1].
    - Back-to-back flip-flops become a latch on [p1] or [p3] followed by an
      inserted latch on [p2].
    - Primary inputs that the assignment penalised get a [p2] latch at the
      port.
    - Clock-gating logic is re-created per phase: each integrated
      clock-gate on the original clock path is duplicated for every phase
      that its registers end up using, with the same enable cone (the
      paper: "the clock gating logic is duplicated and connected to the two
      clock phases separately").
    - The original clock port disappears; ports [p1]/[p2]/[p3] are added.

    The inserted [p2] latches are initially ungated; {!Clock_gating}
    addresses them separately. *)

type clock_ports = {
  p1 : string;
  p2 : string;
  p3 : string;
}

val default_ports : clock_ports

(** Names of the inserted p2 latch instances carry this suffix; retiming
    and clock gating identify movable/gateable latches with it. *)
val p2_suffix : string

val is_inserted_p2 : Netlist.Design.t -> Netlist.Design.inst -> bool

(** [clock_read d] names the first place where [d]'s data logic reads a
    net of its clock network ({!Netlist.Clocking.network}), as a message
    naming the net and the pin or output port: a pin of a combinational
    cell whose outputs are not all clock nets (conversion copies such a
    cell as data logic), a pin of a register other than its clock, an
    ICG's enable, or a primary output.  Instances are taken in id order
    and their pins in connection order, then the outputs.  [None] when
    no data pin reads a clock net.  Conversion drops the clock network,
    so it cannot convert such a design; the flow's [validate] stage
    refuses it with this message. *)
val clock_read : Netlist.Design.t -> string option

(** [to_three_phase ?ports d asg] raises [Invalid_argument] when
    {!clock_read} finds a clock net read as data, or [d] already holds
    a latch. *)
val to_three_phase :
  ?ports:clock_ports -> Netlist.Design.t -> Assignment.t -> Netlist.Design.t
