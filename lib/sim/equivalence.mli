(** Stream-equivalence checking between a reference design and a converted
    design, mirroring the paper's validation methodology ("streaming inputs
    to the FF-based and latch-based designs and comparing output streams").

    Both designs are driven with the same primary-input stream; outputs are
    sampled at the end of every cycle.  The first [warmup] cycles are
    ignored (X wash-out), and a constant latency shift of up to
    [max_shift] cycles is tolerated (and reported).

    The flow's check is {!check_packed}: both designs run on
    {!Kernel}s from one 63-lane {!Stimulus.draw}, and one word
    comparison covers every lane.  {!check} runs one list stream
    through two {!Engine}s; it is the scalar oracle that tests hold
    {!check_packed} to.  Both apply the rules of {!compare_streams}. *)

type mismatch = {
  cycle : int;
  port : string;
  lane : int;  (** stimulus lane; always 0 from {!check} and {!compare_streams} *)
  expected : Logic.t;
  got : Logic.t;
}

type verdict =
  | Equivalent of { shift : int }
  | Mismatch of mismatch

(** Names the cycle, the port and the lane. *)
val pp_mismatch : Format.formatter -> mismatch -> unit

(** [compare_streams ~warmup ~max_shift ref_stream dut_stream] tries
    shifts [0 .. max_shift] in order: at shift [s] it compares reference
    cycle [c] with dut cycle [c + s] for every [c] from [warmup] while
    both streams last, each cycle's ports in the reference's order.  A
    port the dut's cycle lacks differs, read as X.  The first shift
    with no difference is [Equivalent]; a shift whose window holds no
    cycle fails.  When no shift matches, [Mismatch] reports the first
    difference of the lowest shift that had one.  Raises
    [Invalid_argument] when every shift's window is empty. *)
val compare_streams :
  warmup:int -> max_shift:int ->
  (string * Logic.t) list list -> (string * Logic.t) list list -> verdict

(** [min_cycles ?warmup ?max_shift ()] is [warmup + max_shift + 1], the
    fewest stimulus cycles {!check} and {!check_packed} accept (defaults
    as in {!check}: 11). *)
val min_cycles : ?warmup:int -> ?max_shift:int -> unit -> int

(** [check ~reference ~dut ~reference_clocks ~dut_clocks ~stimulus] runs
    both engines over the stimulus and compares ([warmup] defaults to 8,
    [max_shift] to 2).  Raises [Invalid_argument] when the stimulus has
    fewer than {!min_cycles} cycles, so that every shift compares at
    least one cycle. *)
val check :
  ?warmup:int -> ?max_shift:int ->
  reference:Netlist.Design.t -> dut:Netlist.Design.t ->
  reference_clocks:Clock_spec.t -> dut_clocks:Clock_spec.t ->
  stimulus:Stimulus.t -> unit -> verdict

(** [check_packed ~reference ~dut ~reference_clocks ~dut_clocks
    ~stimulus] runs each design on a {!Kernel} over every lane of
    [stimulus] ({!Kernel.run_sampled}) and compares the reference's
    outputs, in order, with the dut's outputs of the same names, as
    {!check} does lane by lane with its default warmup (8) and
    largest shift (2); these are fixed here.  [Equivalent]
    names the lowest shift at which every lane matches over a
    non-empty window.  Otherwise [Mismatch] is the first difference of
    the lowest shift that had one, ordered by cycle, then port, then
    lowest lane.  A port the dut lacks differs on every lane, read as
    X.  Adds the output words compared (one port in one cycle, all
    lanes at once), summed over the shifts tried, to the
    [sim.equivalence.compared] counter.  Raises [Invalid_argument]
    unless [stimulus] has {!Kernel.max_lanes} lanes, when it names an
    input a design lacks, or when it has fewer than {!min_cycles}
    cycles. *)
val check_packed :
  reference:Netlist.Design.t -> dut:Netlist.Design.t ->
  reference_clocks:Clock_spec.t -> dut_clocks:Clock_spec.t ->
  stimulus:Stimulus.packed -> unit -> verdict
