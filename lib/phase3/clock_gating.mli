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

    Activity (per-net toggle counts and the cycle count they were gathered
    over) comes from a simulation of the design being gated.  Only step
    3 reads it, and only at the data nets of its pool ({!observed}), so
    a caller can simulate just their fan-in
    ([Sim.Kernel.create ~observe]). *)

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
