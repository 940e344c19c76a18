(** Stream-equivalence checking between a reference design and a converted
    design, mirroring the paper's validation methodology ("streaming inputs
    to the FF-based and latch-based designs and comparing output streams").

    Both designs are driven with the same primary-input stream; outputs are
    sampled at the end of every cycle.  The first [warmup] cycles are
    ignored (X wash-out), and a constant latency shift of up to
    [max_shift] cycles is tolerated (and reported). *)

type mismatch = {
  cycle : int;
  port : string;
  expected : Logic.t;
  got : Logic.t;
}

type verdict =
  | Equivalent of { shift : int }
  | Mismatch of mismatch

val pp_mismatch : Format.formatter -> mismatch -> unit

(** [compare_streams ~warmup ~max_shift ref_stream dut_stream] tries
    shifts [0 .. max_shift] in order: at shift [s] it compares reference
    cycle [c] with dut cycle [c + s] for every [c] from [warmup] while
    both streams last.  The first shift with no difference is
    [Equivalent]; a shift whose window holds no cycle fails.  When no
    shift matches, [Mismatch] reports the first difference of the
    lowest shift that had one.  Raises [Invalid_argument] when every
    shift's window is empty. *)
val compare_streams :
  warmup:int -> max_shift:int ->
  (string * Logic.t) list list -> (string * Logic.t) list list -> verdict

(** [min_cycles ?warmup ?max_shift ()] is [warmup + max_shift + 1], the
    fewest stimulus cycles {!check} accepts (defaults as in {!check}:
    11). *)
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
