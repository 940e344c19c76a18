(** Compiled, bit-parallel gate-level simulator.

    Where {!Engine} interprets a design through per-instance closures,
    the kernel compiles a {!Netlist.Design} once into flat arrays: an int
    opcode per instance, operand nets in a CSR slice, fanout in a CSR
    slice, and a levelized worklist for the combinational core.  Cell
    functions that match common shapes (inverters, n-ary AND/OR trees,
    XOR, MUX, AOI21/OAI21) get fused opcodes; anything else runs as a
    tiny postfix program.

    3-valued logic is packed as two bitplanes per net — [v] carries the
    value bit and [x] the unknown bit of each lane, with [v land x = 0].
    One native word per plane holds all {!max_lanes} lanes.  This is the
    classic word-parallel trick from fault simulation, used here to run
    many independent random workloads simultaneously: for Monte-Carlo
    switching-activity estimation ({!toggles}), and for the flow's
    stream-equivalence check, which samples both designs' outputs on
    every lane with {!run_sampled} ({!Equivalence.check_packed}).
    Lanes never interact, so a caller
    that wants more lanes runs more kernels and adds their {!toggles}
    arrays.  Toggles are counted per net on every commit via
    [popcount ((prev lxor next) land known)]; lane 0 keeps a separate
    scalar counter so it can be cross-checked against the engine.

    Five compile-time/runtime optimisations keep the kernel faster than
    the scalar engine per full cycle, not just per lane-cycle:

    - {b gate fusion}: maximal single-fanout trees of combinational
      instances collapse into straight-line execution units evaluated
      without intermediate worklist traffic (intermediate nets still
      commit, so they stay observable and toggle-exact);
    - {b activity-gated clock events}: a scheduled clock edge tracks
      which clock nets actually changed and skips the sequential
      elements and fanout cones hanging off idle clock branches; each
      event additionally carries a statically planned reachable cone,
      so predicted-cold sequential cones are never even scanned;
    - {b packed stimulus}: a {!Stimulus.draw} holds one word per cycle
      and input with every lane's value, so a cycle commits each
      input's word as it is, with the input names resolved to nets once
      per run; a run draws only the columns of the inputs its cone
      reads ({!Stimulus.columns}), and a draw read by several kernels
      draws each column once;
    - {b wake rules}: a register is not woken for a pin change it
      cannot react to.  An event-only net changes only at a clock
      event: a design clock port, the output of a clock buffer or
      inverter on an event-only net, or the GCK of a standard ICG
      whose CK is event-only (its enable loads only where CK is a known
      0, where GCK is 0 either way).  A flip-flop without reset clocked
      by one is never woken by its D or CK: the event that moved CK
      synced its previous clock, so a settle shows it no edge.  A latch
      without reset enabled by one is woken by its D or EN only while
      EN is transparent on some lane, and EN holds through the settle.
      A clock buffer or inverter on an event-only net is not woken
      again after the event evaluated it.  At a clock event only the
      registers whose state changed are released.  Each dropped
      evaluation or release would have written nothing, and a dropped
      register cannot be woken through another pin later in the same
      settle, so no evaluation that writes moves in the worklist:
      outputs, glitches and toggle counts are those of every wake.
      Registers with a reset pin keep every wake, since a reset
      asserted later in a settle would re-queue them at another
      position;
    - {b event plans}: {!create} walks the clock network once per
      clock event of the period, from the clock spec's port levels,
      3-valued: a buffer passes its input's level, an inverter negates
      it, and an ICG's GCK is 0 where its CK is 0 and unknown elsewhere.
      That gives the levels the event leaves.  A register's update at
      step 3 writes only on the lanes where it captures (a lane under
      reset was cleared when the reset came on), so step 3 skips a
      latch the event leaves opaque and a flip-flop on an event-only
      clock left at 0 (a register with a reset pin, which could be a
      clock net, is always updated).  When every event that can move
      such a flip-flop's clock leaves it at 0 or raises it from a known
      0, the flip-flop keeps no previous-clock planes: it captures at a rising
      event on its clock's known-1 lanes, and never in a settle.  The
      plan also holds the nets that can still move during the event's
      settle: the forward closure from the outputs of the registers that
      can capture (and of logic reading a clock net), through logic,
      through ICGs by style (standard: if CK moves; M1: if CK or P3
      moves, or EN moves while P3 can be 1; M2: if CK moves, or EN
      moves while CK can be 1), through latches that can be transparent
      after the event, and through flip-flops whose CK or reset moves.
      Step 4 wakes the event's clock-net readers from a precomputed
      list that leaves out a register step 3 handled when no pin it
      reacts to can move in that settle.  Each dropped update or
      evaluation would write nothing, and a dropped register cannot be
      made to write later in the settle, so no evaluation that writes
      changes its place in the worklist: every value, glitch and toggle
      is that of every update and every wake, on every lane.

    Lane values are fully independent: with identical stimulus, lane 0
    is bit-exact against {!Engine} — same outputs and same per-net
    toggle counts — because both simulators share {!Levelize} and drain
    their worklists in the same level order, and every skip above is
    provably idempotent.  The lanes share one worklist, though: where a
    glitch depends on the order in which registers re-evaluate within
    one settle, a register woken for another lane's change can move it,
    so with different stimulus on other lanes only lane 0's values stay
    the engine's on every design.

    {b Cones.}  A caller that reads only some nets passes them to
    {!create} as [~observe], and the kernel simulates only their
    fan-in: the closure of the observed nets' drivers over every pin
    the kernel reads (data, clock, enable, reset and an ICG's P3), taken
    over whole fused units.  Instances outside the cone are never
    woken, evaluated, updated, released or scanned, and inputs outside
    it are not committed.  This is exact.  An instance outside the
    closure never writes a net inside it, and every net an instance
    inside it reads is inside it.  So an evaluation outside the cone
    never changes a value, a wake or the [in_queue] state of one
    inside it, and removing those evaluations from the level-bucketed
    FIFO worklist keeps the remaining ones in the same order.  Every
    value and every glitch toggle of a net in the cone is therefore
    that of the whole-design kernel, on every lane, and lane 0 stays
    equal to {!Engine}.  The values and toggles of nets outside the
    cone are unspecified. *)

exception Oscillation of string

type t

(** Number of lanes a kernel simulates: 63, one bit of an OCaml
    immediate int per lane. *)
val max_lanes : int

(** Compile [design] for {!max_lanes} lanes and establish the same
    pre-time-0 state as {!Engine.create} on every lane.  [init] as for
    the engine: [`Zero] resets all state and inputs to 0, [`X] starts
    everything unknown.  [fuse] and [gating] disable gate fusion and
    clock-event activity gating; both exist for differential testing
    and default to on.  [gating] also switches the wake rules, the
    event plans and the release of changed registers only, so
    [~gating:false] is the reference path: every event updates every
    register and wakes every reader of a clock net, every wake is
    evaluated and every register is released.  [observe] (default: every
    net) restricts the kernel to the cone of those nets (see "Cones"
    above): the cone's nets keep the whole-design values and toggles,
    the rest are unspecified, and {!run_sampled} refuses them.  Fusion
    is decided on the whole design, so {!stats}' [units] and
    [fused_ops] do not depend on [observe].  Records a
    [sim.kernel.create] span and the sizes of its settle waves in the
    [sim.kernel.wave.units] histogram.  Raises [Invalid_argument] when
    [observe] names a net the design does not have. *)
val create :
  ?init:[ `Zero | `X ] ->
  ?fuse:bool ->
  ?gating:bool ->
  ?observe:Netlist.Design.net array ->
  Netlist.Design.t ->
  clocks:Clock_spec.t ->
  t

(** Simulate one full clock period with the same inputs driven on every
    lane.  Inputs change right after the first rising clock event, as in
    {!Engine.run_cycle}, and are applied in list order.  The cycle's
    settle-wave sizes go to the [sim.kernel.wave.units] histogram at its
    end.  Raises [Invalid_argument] for an unknown input and
    {!Oscillation} if the design does not settle. *)
val run_cycle_broadcast : t -> (string * Logic.t) list -> unit

(** [run t p] drives one lane of [p] per kernel lane, one cycle per
    cycle of [p] as in {!run_cycle_broadcast}.  [p.inputs] resolve to
    nets once, and the columns of the inputs in the cone are drawn
    ({!Stimulus.columns}); each cycle then commits each of those
    inputs' word as it is, in [p.inputs] order ({!Stimulus.inputs_of}
    gives the design's input order).  Inputs [p] does not list keep their values.  Records a
    [sim.kernel.run] span and the [sim.kernel.*] run counters.  Raises
    [Invalid_argument] unless [p] has {!max_lanes} lanes, or when it
    names an input the design does not have.  The counters are
    [sim.kernel.cycles], [lane_cycles], [toggles] (the toggles of the
    nets in the cone, since no other net is updated), [waves_skipped],
    [cones_skipped] (registers in the cone that a clock event did not
    update, whether their clock did not move or the event's plan left
    them out) and [evals]; the run's settle-wave sizes go to the
    [sim.kernel.wave.units] histogram at its end, one weighted sample
    per size. *)
val run : t -> Stimulus.packed -> unit

(** [run_sampled t p nets] runs exactly as [run t p] does and also
    returns the value and unknown planes of [nets] at the end of every
    cycle, cycle-major: element [c * Array.length nets + j] of each
    array is net [nets.(j)] after cycle [c] of [p], bit [l] for lane
    [l].  {!run} is this loop with no nets.  Raises as {!run} does,
    and [Invalid_argument] when a net of [nets] is outside the cone of
    the kernel's observed nets. *)
val run_sampled :
  t -> Stimulus.packed -> Netlist.Design.net array -> int array * int array

(** [run_streams t streams] is [run t (Stimulus.pack streams)]: one
    list stream per lane, each lane-cycle listing the same ports in the
    same order with values 0 or 1.  Raises [Invalid_argument] as
    {!Stimulus.pack} and {!run} do.  An adapter for callers that hold
    list streams; it packs first, so it costs more than {!run}. *)
val run_streams : t -> (string * Logic.t) list list array -> unit

val design : t -> Netlist.Design.t

(** Always {!max_lanes}. *)
val lanes : t -> int

(** Clock periods simulated so far. *)
val cycles : t -> int

(** [cycles t * lanes t] — the denominator for per-lane activity rates. *)
val lane_cycles : t -> int

(** Per-net toggle counts summed over all lanes.  With [observe], only
    the entries of nets in the cone are specified. *)
val toggles : t -> int array

(** Per-net toggle counts of lane 0 alone (the scalar-oracle view),
    specified as {!toggles} is. *)
val toggles_lane0 : t -> int array

(** Compile-time and runtime effectiveness counters: execution units
    after fusion, instances absorbed as fused members, settle waves that
    had nothing to evaluate (the wake rules and event plans empty some),
    registers in the cone of the observed nets that a clock event did
    not update, because their clock net did not move or because the
    event's plan shows the update cannot write, and units the settle
    loop evaluated.  The runtime ones
    count from the end of {!create}. *)
type stats = {
  units : int;
  fused_ops : int;
  stat_waves_skipped : int;
  stat_cones_skipped : int;
  stat_evals : int;
}

val stats : t -> stats

val net_value : t -> lane:int -> Netlist.Design.net -> Logic.t

(** Primary-output values of one lane. *)
val output_sample : t -> lane:int -> (string * Logic.t) list

(** Exposed for tests: population count of a 63-bit-masked word. *)
val popcount : int -> int
