(** Modified retiming (Section IV-C): reposition only the inserted [p2]
    latches inside the combinational logic so each half-stage meets the
    timing budget — the paper maps this onto FF retiming with a
    [clk]/[clkbar] trick and only lets [clkbar] registers move; here the
    restriction is expressed directly: only latches created by
    {!Convert} (recognisable by {!Convert.p2_suffix}) move, forward and
    backward, starting from their initial position immediately after the
    first latch of each pair.

    A forward move pushes a group of [p2] latches across a combinational
    gate when every input of the gate is the output of a movable latch
    that has no other reader; the gate then computes ahead of a single new
    [p2] latch at its output.  A backward move pulls one [p2] latch that
    is a gate's only reader back across the gate, with one new latch per
    non-constant gate input.  Moves are taken while they reduce
    [max(input-side delay, output-side delay)] of the affected latches,
    which balances the split pipeline stages exactly like retiming at
    [T_c/2] in the paper, and only where the reset state is preserved. *)

type stats = {
  moves : int;
  passes : int;
  latches_before : int;
  latches_after : int;
}

(** [run d] returns the retimed design; the input must be a converted
    3-phase design.  Each pass compiles its own {!Sta.Graph}. *)
val run : Netlist.Design.t -> Netlist.Design.t * stats
