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
    The input design is simulated on one {!draw}, once when it can
    be.  The [clock_gating] stage reads its DDCG activity from one run
    of the input flip-flop design, one cycle longer than
    [activity_cycles], that simulates only the fan-in of the partners
    of the DDCG pool's data nets ({!Clock_gating.reference_activity}),
    and runs nothing when the pool is empty.  When verification is on
    and [verify_cycles <= activity_cycles + 1], that run also observes
    and samples the primary outputs ({!Sim.Equivalence.samples}).  The
    [equivalence] stage then runs only the final design, on the draw's
    first [verify_cycles] cycles, and takes the
    {!Sim.Equivalence.verdict} of the two samplings, which compares
    cycles while both last: the first [verify_cycles].  It
    runs the reference itself, on the same cycles, only when the
    clock-gating stage took no samples: clock gating or DDCG off, an
    empty pool, no partner, or a check longer than the profile.  The
    verdict does not depend on which run sampled the reference: a
    kernel's values on a net do not depend on the other nets it
    observes ({!Sim.Kernel}, "Cones"). *)

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
      lanes of {!draw} ({!Sim.Equivalence.verdict}) *)
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

(** The flow's one draw for the input design [d]: a
    {!Sim.Kernel.max_lanes}-lane {!Sim.Stimulus.draw} over [d]'s
    non-clock inputs at toggle probability 0.25, lane [l] seeded
    [activity_seed + l], as long as the longer of its two readers: the
    clock-gating stage's profile, [activity_cycles + 1] cycles when DDCG
    is on, and the equivalence check, [verify_cycles] cycles when it is
    on.  Each reads a {!Sim.Stimulus.prefix} of it.  Lane 0 is
    [Sim.Stimulus.random ~seed:activity_seed ~toggle_probability:0.25]. *)
val draw : config -> Netlist.Design.t -> Sim.Stimulus.packed

exception Flow_error of string

(** [run ~config d] raises {!Flow_error} when the input design fails
    validation or the result fails equivalence, and before any stage
    when [period] is not positive and finite, [verify_cycles] is too
    short for the equivalence check, or a clock-gating option is on
    with [activity_cycles < 1].  Validation refuses, besides
    {!Netlist.Check}'s errors, a design with more than one clock port
    and one whose data logic reads a clock net
    ({!Convert.clock_read}), each with a message naming the
    [validate] stage. *)
val run : config:config -> Netlist.Design.t -> result
