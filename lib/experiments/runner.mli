(** Execution of one benchmark through the three design styles the paper
    compares: the original flip-flop design, the master-slave latch
    baseline, and the proposed 3-phase conversion — each taken through
    placement, clock-tree synthesis, workload simulation and power
    estimation. *)

type variant = {
  design : Netlist.Design.t;
  regs : int;
  cell_area : float;        (** um^2 incl. clock-tree buffers *)
  power : Power.Estimate.breakdown;
  wirelength : float;
  clock_buffers : int;
  hold_buffers : int;       (** min-delay buffers {!Sta.Hold_fix} inserted *)
  runtime_s : float;        (** build/convert + implement + sim + power *)
  kernel : Sim.Kernel.stats;
  (** kernel effectiveness counters from this variant's activity run:
      fused ops, skipped waves and skipped clock cones *)
}

type t = {
  bench : Circuits.Suite.benchmark;
  ff : variant;
  ms : variant;
  threep : variant;
  flow : Phase3.Flow.result;
  ilp_time_s : float;
  total_time_s : float;
}

(** [run ?cycles bench] — [cycles] of workload simulation feed the power
    model (default 384); the converted designs are stream-checked against
    the original. *)
val run : ?cycles:int -> Circuits.Suite.benchmark -> t

(** Power of an arbitrary design/clocks/workload combination (used by the
    Fig. 4 experiment which sweeps workloads): the design is hold-fixed,
    then measured ({!Qor.Collect.implement_and_power}). *)
val power_of :
  Netlist.Design.t -> clocks:Sim.Clock_spec.t -> workload:Circuits.Workload.t ->
  cycles:int -> seed:int -> Power.Estimate.breakdown

(** One QoR run record per design style — kind ["experiment"], tagged
    with [variant = "ff" | "ms" | "3p"] in the record config — ready
    for {!Qor.Store.append}.  The 3-phase record additionally carries
    the flow-derived metrics (inserted p2, clock-gating coverage, SMO
    slack, equivalence).  Obs rollups are omitted: the three variants
    run concurrently, so the global aggregates are commingled. *)
val records : t -> Qor.Record.t list
