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

(** One power measurement of a design. *)
type measurement = {
  impl : Physical.Implement.t;     (** placement + CTS *)
  detail : Power.Estimate.detail;
  toggles : int array;
  (** per net of the measured design, summed over the kernel's lanes *)
  lane_cycles : int;               (** the denominator of [toggles] *)
  kernel : Sim.Kernel.stats;
  (** the activity run's effectiveness counters (fused ops, skipped
      waves and cones, evaluations) *)
}

(** [measure design ~clocks ~shape ~cycles ~seed] implements [design] as
    it is (placement + CTS), runs Monte-Carlo activity on one
    {!Sim.Kernel} (lane [l] a [shape] stream of [cycles] cycles seeded
    [seed + l]), then {!Power.Estimate.run}.  Deterministic for fixed
    inputs: the lane count is fixed regardless of [THREEPHASE_JOBS].
    No hold fix: a caller that has already padded its design measures it
    here. *)
val measure :
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  shape:Sim.Stimulus.shape ->
  cycles:int ->
  seed:int ->
  measurement

(** [implement_and_power] hold-fixes the design under [clocks]
    ({!Sta.Hold_fix.run} at its defaults), then {!measure}s the padded
    design, which it returns with the hold-fix statistics.  The flow
    record measures under [Uniform 0.3] ({!record_power});
    [Experiments.Runner] under each benchmark's workload. *)
val implement_and_power :
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  shape:Sim.Stimulus.shape ->
  cycles:int ->
  seed:int ->
  Netlist.Design.t * Sta.Hold_fix.stats * measurement

(** [record_power design ~clocks ~seed] is the run record's power
    measurement: {!implement_and_power} under [Uniform 0.3] for 256
    cycles.  {!of_flow} calls it on the final design with the flow's
    [activity_seed]; [ff2latch power] calls it on its input with the
    default [activity_seed], so on a netlist that [convert -o] wrote
    it prints that conversion's record power. *)
val record_power :
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  seed:int ->
  Netlist.Design.t * Sta.Hold_fix.stats * measurement

(** [of_flow ~circuit result] — the full flow record: register-count
    metrics, inserted-p2 before/after retiming, clock-gating coverage,
    SMO slack, equivalence verdict, area/power/hold-buffer metrics from
    {!record_power}, and the process's {!Obs}
    counters, histograms, gauges and span tree.  Call it from
    sequential code only, like every other [Obs] reader.  [extra_wall]
    appends caller-side wall-clock entries. *)
val of_flow :
  ?extra_wall:(string * float) list ->
  circuit:string ->
  Phase3.Flow.result ->
  Record.t
