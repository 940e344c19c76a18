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

(** Physical implementation and power of a finished design: hold-fix
    under the given clocks, placement + CTS, Monte-Carlo activity via
    the bit-parallel kernel (lane [l] a [shape] stream of [cycles]
    cycles seeded [seed + l]), then {!Power.Estimate.run}.
    Deterministic for fixed inputs — the lane count is fixed
    regardless of [THREEPHASE_JOBS].  Also returns the kernel's
    effectiveness counters (fused ops, skipped waves/cones) from the
    activity run.  The flow record measures under [Uniform 0.3];
    [Experiments.Runner] under each benchmark's workload. *)
val implement_and_power :
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  shape:Sim.Stimulus.shape ->
  cycles:int ->
  seed:int ->
  Physical.Implement.t * Sta.Hold_fix.stats * Power.Estimate.detail
  * Sim.Kernel.stats

(** [of_flow ~circuit result] — the full flow record: register-count
    metrics, inserted-p2 before/after retiming, clock-gating coverage,
    SMO slack, equivalence verdict, area/power/hold-buffer metrics from
    {!implement_and_power} over 256 cycles, and the process's {!Obs}
    counters, histograms, gauges and span tree.  Call it from
    sequential code only, like every other [Obs] reader.  [extra_wall]
    appends caller-side wall-clock entries. *)
val of_flow :
  ?extra_wall:(string * float) list ->
  circuit:string ->
  Phase3.Flow.result ->
  Record.t
