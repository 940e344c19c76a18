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
    model (default 384), one {!workload_draw} seeded 2024 shared by the
    three styles; the converted designs are stream-checked against the
    original.  The flow checks the 3-phase design itself.  The
    master-slave check is the {!Sim.Equivalence.verdict} over the
    outputs that the FF and M-S power runs sampled
    ({!Qor.Collect.measurement}[.outputs]): it checks the designs as
    measured (hold fixed), on every lane and cycle of the power draw,
    and runs no kernel of its own.  Raises [Failure] when the M-S
    design is not equivalent, and [Invalid_argument] when [cycles] is
    below {!Sim.Equivalence.min_cycles}[ ()] (from the draw when it is
    negative). *)
val run : ?cycles:int -> Circuits.Suite.benchmark -> t

(** [workload_draw design ~workload ~cycles ~seed] is the
    {!Sim.Kernel.max_lanes}-lane draw of [workload] over [design]'s
    inputs that a power measurement reads, lane [l] seeded [seed + l].
    {!run} draws once over the original design and measures its three
    design styles on that draw: conversion, clock gating and hold
    fixing add no input. *)
val workload_draw :
  Netlist.Design.t -> workload:Circuits.Workload.t -> cycles:int -> seed:int ->
  Sim.Stimulus.packed

(** Power of an arbitrary design/clocks/workload combination (used by the
    Fig. 4 experiment which sweeps workloads): the design is hold-fixed,
    then measured ({!Qor.Collect.implement_and_power}) on its own
    {!workload_draw}. *)
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
