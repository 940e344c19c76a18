(** The pulsed-latch baseline the paper's introduction positions 3-phase
    conversion against (refs [7]-[11]): every flip-flop becomes a single
    latch made transparent by a narrow pulse from an edge-triggered pulse
    generator.

    Pulsed latches keep the register count at 1x (better than both
    master-slave and 3-phase) and nearly halve the clock-pin load, but
    "must be used carefully because they are subject to hold problems and
    pulse width variations" (Section I).  Modelling: the intended
    behaviour of a correctly sized pulse (shorter than every data path) is
    edge-like capture, so the converted design uses the [PLATCH] cells —
    flip-flop semantics with latch electrical characteristics — and the
    hold exposure appears in timing analysis as an extra hold margin equal
    to the pulse width ({!hold_margin}), which the skew/hold ablations
    quantify. *)

(** The hold margin in ns a pulsed design must meet: the 0.02 ns base
    margin plus the full 0.08 ns pulse width (data must not change until
    the pulse closes).  The pulse width is technology-bound rather than
    period-bound. *)
val hold_margin : float

(** [convert d] replaces each flip-flop with a pulsed-latch cell on the
    same (possibly gated) clock net. *)
val convert : Netlist.Design.t -> Netlist.Design.t
