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
    One native word holds {!max_lanes} lanes; asking for more lanes
    compiles the kernel with [ceil (lanes / 63)] words per net, laid out
    contiguously, with lane 0 in word 0.  The single-word layout is kept
    as a specialized fast path.  This is the classic word-parallel trick
    from fault simulation, used here to run many independent random
    workloads simultaneously for Monte-Carlo switching-activity
    estimation.  Toggles are counted per net on every commit via
    [popcount ((prev lxor next) land known)] in every word; lane 0 keeps
    a separate scalar counter so it can be cross-checked against the
    engine.

    Three compile-time/runtime optimisations keep the kernel faster than
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
    - {b broadcast staging}: identical stimulus on every lane is staged
      per word instead of per lane.

    Lanes are fully independent: with identical stimulus, lane 0 is
    bit-exact against {!Engine} — same outputs and same per-net toggle
    counts — because both simulators share {!Levelize} and drain their
    worklists in the same level order, and every skip above is provably
    idempotent. *)

exception Oscillation of string

type t

(** Number of lanes packed per word: 63, keeping every plane inside an
    OCaml immediate int. *)
val max_lanes : int

(** Per-word lane masks for a lane count: all-ones for full words, the
    remaining lanes in the final word.  Exposed for tests of the
    partial-final-word edge cases (63, 64, non-multiples of 63). *)
val word_masks : int -> int array

(** Compile [design] and establish the same pre-time-0 state as
    {!Engine.create} on every lane.  [lanes] defaults to {!max_lanes};
    any positive count is accepted — beyond 63 the kernel switches to
    the multi-word layout.  [init] as for the engine: [`Zero] resets all
    state and inputs to 0, [`X] starts everything unknown.  [fuse] and
    [gating] disable gate fusion and clock-event activity gating; both
    exist for differential testing and default to on. *)
val create :
  ?init:[ `Zero | `X ] ->
  ?lanes:int ->
  ?fuse:bool ->
  ?gating:bool ->
  Netlist.Design.t ->
  clocks:Clock_spec.t ->
  t

(** Simulate one full clock period, one input assignment per lane.
    Inputs change right after the first rising clock event, as in
    {!Engine.run_cycle}.  Raises {!Oscillation} if the design does not
    settle. *)
val run_cycle : t -> (string * Logic.t) list array -> unit

(** [run_cycle] with the same inputs driven on every lane. *)
val run_cycle_broadcast : t -> (string * Logic.t) list -> unit

(** Run one stimulus stream per lane; all streams must have the same
    length. *)
val run_streams : t -> (string * Logic.t) list list array -> unit

val run_stream_broadcast : t -> (string * Logic.t) list list -> unit

val design : t -> Netlist.Design.t

val lanes : t -> int

(** Bitplane words per net: [ceil (lanes / 63)]. *)
val words : t -> int

(** Clock periods simulated so far. *)
val cycles : t -> int

(** [cycles t * lanes t] — the denominator for per-lane activity rates. *)
val lane_cycles : t -> int

(** Per-net toggle counts summed over all lanes. *)
val toggles : t -> int array

(** Per-net toggle counts of lane 0 alone (the scalar-oracle view). *)
val toggles_lane0 : t -> int array

(** Compile-time and runtime effectiveness counters: execution units
    after fusion, instances absorbed as fused members, settle waves that
    had nothing to evaluate, and sequential cones skipped at clock
    events because their clock net did not move (equivalently: did not
    capture). *)
type stats = {
  units : int;
  fused_ops : int;
  stat_waves_skipped : int;
  stat_cones_skipped : int;
}

val stats : t -> stats

val net_value : t -> lane:int -> Netlist.Design.net -> Logic.t

(** Primary-output values of one lane. *)
val output_sample : t -> lane:int -> (string * Logic.t) list

(** Exposed for tests: population count of a 63-bit-masked word. *)
val popcount : int -> int
