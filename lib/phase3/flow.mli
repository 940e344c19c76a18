(** The end-to-end conversion flow (Section IV-B):

    validate -> phase assignment (ILP) -> netlist conversion ->
    modified retiming -> clock gating -> timing sign-off (SMO) ->
    lint audit -> stream-equivalence validation.

    Each step can be disabled for ablation studies.  The flow never
    modifies its input; every step yields a new design.

    Every enabled stage records exactly one [flow.<stage>] {!Obs.span}
    (with nested spans for inner work such as activity profiling),
    allocation-pressure gauges at its boundary
    ([flow.<stage>.gc.minor_words] etc. via {!Obs.gc_span}) and one
    entry in {!result.stage_times}, so traces, per-stage tables and
    QoR run records come for free — see docs/FLOW.md for the stage
    catalogue and docs/QOR.md for the record schema.  All of the
    flow's work runs inside a stage span: the final design's one
    structural check runs in [smo], and [lint] reads its findings.
    The [clock_gating] stage simulates only the fan-in of the DDCG
    pool's data nets ({!Clock_gating.observed}), and nothing when the
    pool is empty. *)

type config = {
  solver : Assignment.solver;
  node_budget : int;
  retime : bool;
  optimize : bool;          (** run {!Netlist.Optimize} on the result *)
  clock_gating : Clock_gating.options;
  ports : Convert.clock_ports;
  period : float;             (** ns; drives timing checks and power *)
  activity_cycles : int;
  (** simulation length for toggle profiling; with any clock-gating
      option on the flow refuses fewer than 1 *)
  activity_seed : int;
  verify_equivalence : bool;
  (** stream-compare against the FF design on {!Sim.Kernel.max_lanes}
      lanes ({!Sim.Equivalence.check_packed}) *)
  verify_cycles : int;
  (** equivalence stream length per lane; with [verify_equivalence] the
      flow refuses fewer than {!Sim.Equivalence.min_cycles} (11) *)
  lint : bool;
  (** run the {!Lint.Engine} audit on the final design; the flow fails
      when any error-severity finding survives — the conversion cannot
      vouch for itself, the independent phase auditor must concur *)
}

val default_config : period:float -> config

type result = {
  config : config;
  original : Netlist.Design.t;
  assignment : Assignment.t;
  converted : Netlist.Design.t;   (** after conversion only *)
  retimed : Netlist.Design.t;     (** = converted when retiming is off *)
  final : Netlist.Design.t;       (** after clock gating *)
  retime_stats : Retime.stats option;
  cg_stats : Clock_gating.stats option;
  timing : Sta.Smo.report;
  lint : Lint.Engine.report option;  (** [None] when [config.lint] is off *)
  equivalence : Sim.Equivalence.verdict option;
  stage_times : (string * float) list;
  (** wall-clock seconds per executed stage, in execution order; keys
      are {!stage_names} entries (plus ["optimize"] when enabled) *)
}

(** The eight pipeline stages, in order: [validate], [assign],
    [convert], [retime], [clock_gating], [smo], [lint], [equivalence].
    Span names prefix these with ["flow."]. *)
val stage_names : string list

(** Three-phase clock spec matching the flow's config. *)
val clocks_of : config -> Sim.Clock_spec.t

(** Single-clock spec for the original design at the same period. *)
val reference_clocks : Netlist.Design.t -> period:float -> Sim.Clock_spec.t

(** The equivalence stage's stimulus for the input design [d]: a
    {!Sim.Kernel.max_lanes}-lane {!Sim.Stimulus.draw} of
    [verify_cycles] cycles over [d]'s non-clock inputs at toggle
    probability 0.35, lane [l] seeded [activity_seed + 17 + l].  Lane 0
    is [Sim.Stimulus.random ~seed:(activity_seed + 17)]. *)
val equivalence_stimulus : config -> Netlist.Design.t -> Sim.Stimulus.packed

exception Flow_error of string

(** [run ~config d] raises {!Flow_error} when the input design fails
    validation or the result fails equivalence, and before any stage
    when [period] is not positive and finite, [verify_cycles] is too
    short for the equivalence check, or a clock-gating option is on
    with [activity_cycles < 1]. *)
val run : config:config -> Netlist.Design.t -> result
