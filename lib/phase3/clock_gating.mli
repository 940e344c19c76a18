(** Clock gating of the inserted [p2] latches (Section IV-D).

    Three mechanisms, applied in order:

    1. {b Common-enable gating} — a [p2] latch whose fan-in latches are all
       gated by one enable [EN] is gated by a new "p2 CG" driven by the
       same [EN].  Following the paper's modification M1 the cell is the
       [ICGP3] variant: its internal latch is clocked by the extra [p3]
       pin instead of an inverted [p2].
    2. {b M2 latch removal} — a standard CG driving [p1] or [p3] latches
       whose enable cone has no start point latched on the CG's own phase
       is replaced by the latch-less [ICGNL] cell.
    3. {b Multi-bit data-driven clock gating (DDCG)} — remaining ungated
       [p2] latches whose data toggles below [ddcg_threshold] (default 1%
       of the clock) are grouped (at most [max_fanout], default 32, per
       group, sorted by toggle rate so groups correlate); each group gets
       XOR(D,Q) comparators ORed into the enable of a shared M1-style CG.

    Activity (per-net toggle counts and the lane-cycle count they are
    rated over) is indexed by the nets of the design being gated.  Only
    step 3 reads it, and only at the data nets of its pool
    ({!observed}).  The flow does not simulate the design being gated
    for it: each pool data net is the output of a [p3] latch, or of a
    gate that {!Retime} moved a [p2] latch across, and takes the values
    of its partner in the input flip-flop design one clock edge early
    ({!partners}).  So {!reference_activity} reads every rate from one
    run of the flip-flop design, one cycle longer than the profile,
    that simulates only the partners' fan-in. *)

type options = {
  common_enable : bool;
  m2_latch_removal : bool;
  ddcg : bool;
  ddcg_threshold : float;  (** toggle rate below which DDCG applies *)
  max_fanout : int;        (** max latches per CG cell *)
}

val default_options : options

type stats = {
  p2_latches : int;
  gated_common_enable : int;
  ddcg_gated : int;
  ddcg_groups : int;
  m2_replaced : int;
  cg_cells_added : int;
}

(** Every decision that reads no activity, taken once: the
    common-enable groups (step 1), the M2 replacements (step 2) and the
    DDCG pool (step 3): the ungated [p2] latches that pass the
    DDCG-safe and initialisation-safe filters, each with its data
    net. *)
type plan

val plan :
  ?options:options -> ?ports:Convert.clock_ports -> Netlist.Design.t -> plan

(** The data nets of the DDCG pool, in the pool's order: the only nets
    whose activity {!apply} reads.  Empty when DDCG is off or no [p2]
    latch qualifies. *)
val observed : plan -> Netlist.Design.net array

(** [partners p d] pairs each net of {!observed} [p], in order, with
    its partner in [d], the flip-flop design that [p]'s design was
    converted from: the net on the same output pin of the same-named
    instance of [d].  A [p3] latch [<ff>] maps to flip-flop [<ff>]'s
    [Q]; a gate maps to the gate of the same name and cell.  [None]
    when [d] has no such instance, or one of another kind.

    Conversion keeps each flip-flop's name, so a pool data net driven
    by a [p3] latch takes in cycle [c] the value the flip-flop captures
    at the start of cycle [c + 1]: its toggles over the create-time
    settle and [N] cycles of a {!Sim.Kernel} run are the partner's over
    [N + 1] cycles of the same draw.  A retimed gate reads the [p3]
    latches' outputs where its partner reads the flip-flops' [Q]s, so
    it inherits the equality, up to a glitch in the 3-phase design's
    create-time settle. *)
val partners : plan -> Netlist.Design.t -> Netlist.Design.net option array

(** [reference_activity p d ~lane_cycles ~simulate] is the activity
    {!apply} reads, taken from a run of [d], the flip-flop design
    [p]'s design was converted from.  [simulate nets] runs [d] on the
    profile's draw extended by one cycle, observing at least [nets]
    (the partners of the pool's data nets), and returns its toggles
    indexed by [d]'s nets; it is called once, and not at all when no
    pool net has a partner.  Each pool data net gets its partner's
    count, and a net with no partner gets [max_int], so it never reads
    as quiet.  [lane_cycles] is the rate denominator, the lanes times
    the profile's cycles (not the one cycle more that [simulate] ran).
    With an empty pool the activity is [([||], lane_cycles)]. *)
val reference_activity :
  plan ->
  Netlist.Design.t ->
  lane_cycles:int ->
  simulate:(Netlist.Design.net array -> int array) ->
  int array * int

(** [apply p ~activity:(toggles, cycles)] groups the pool's latches
    whose data nets toggle below the threshold, reading [toggles] only
    at {!observed}, and rebuilds the design with every gate. *)
val apply :
  plan -> activity:int array * int -> Netlist.Design.t * stats

(** [run ?options ?ports ~activity d] is [apply (plan ?options ?ports d)
    ~activity]. *)
val run :
  ?options:options ->
  ?ports:Convert.clock_ports ->
  activity:int array * int ->
  Netlist.Design.t ->
  Netlist.Design.t * stats
