(** Record builders: provenance capture, {!Obs} rollup, and the
    extraction of QoR metrics from a finished {!Phase3.Flow} run.

    {!Record} and {!Diff} are pure data; this module is where the run
    record meets the rest of the system — it shells out for the git
    revision, reads the clock and hostname, implements/simulates the
    final design for power, and flattens {!Phase3.Flow.result} into
    the metric names documented in docs/QOR.md. *)

(** Capture provenance now: git rev (when the tree is a repo and [git]
    is on PATH), effective [THREEPHASE_JOBS], hostname, UTC ISO-8601
    timestamp. *)
val provenance : kind:string -> circuit:string -> Record.provenance

(** A {!Phase3.Flow.config} as record [config] fields (all knobs that
    influence QoR; deterministic). *)
val config_json : Phase3.Flow.config -> (string * Report.Json.t) list

(** Snapshot of the global {!Obs} aggregates:
    [(counters, gauges, spans, hists, tree)].  [gauges] additionally
    carries p50/p99/max readouts of the execution-shaped histograms
    ({!Obs.exec_histograms}) — machine-shaped distributions belong in
    the noisy channel; [hists] is the deterministic
    {!Obs.histograms}; [tree] the {!Obs.span_tree} call tree.  Call it
    from sequential code only (after the flow / suite), like every
    other [Obs] reader. *)
val obs_rollup :
  unit ->
  (string * int) list
  * (string * float) list
  * Record.span list
  * (string * Obs.Histogram.t) list
  * Record.tree_node list

(** Physical implementation and power of a finished design: hold-fix
    under the given clocks, placement + CTS, Monte-Carlo activity via
    the bit-parallel kernel (one seeded stream per lane), then
    {!Power.Estimate.run}.  Deterministic for fixed inputs — the lane
    count is fixed regardless of [THREEPHASE_JOBS].  Also returns the
    kernel's effectiveness counters (fused ops, skipped waves/cones)
    from the activity run. *)
val implement_and_power :
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  cycles:int ->
  seed:int ->
  Physical.Implement.t * Sta.Hold_fix.stats * Power.Estimate.detail
  * Sim.Kernel.stats

(** [of_flow ~circuit result] — the full flow record: register-count
    metrics, inserted-p2 before/after retiming, clock-gating coverage,
    SMO slack, equivalence verdict, area/power/hold-buffer metrics from
    {!implement_and_power} over 256 cycles, and the {!obs_rollup} of
    the process's recorded events.  [extra_wall] appends caller-side
    wall-clock entries. *)
val of_flow :
  ?extra_wall:(string * float) list ->
  circuit:string ->
  Phase3.Flow.result ->
  Record.t
