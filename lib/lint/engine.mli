(** The lint engine: runs every pass over a design, applies waivers,
    sorts deterministically and produces a report.

    Passes, in rule-id order of what they emit:
    - structural netlist checks ([NET-*], {!Netlist.Check.diagnostics});
    - clock-network audit ([CLK-*], {!Clock_audit});
    - min-delay audit ([HOLD-*], {!Hold_audit});
    - phase-legality audit ([PHASE-*], {!Phase_audit}, plus [PHASE-006]
      for each register {!Sta.Smo.views} finds without a waveform).  Both
      audits read the register views of {!Sta.Smo.views} and the arcs of
      {!Sta.Paths}, and still share no code with [Phase3];
    - reset audit ([RST-*], {!Reset_audit}).

    The phase and min-delay audits need an acyclic combinational network:
    on a design with a combinational cycle they are skipped and [NET-002]
    reports the cycle.

    RTL lints ([RTL-*]) are collected during elaboration and handed in
    through [extra].

    The report's diagnostic list is sorted with
    {!Lint_core.Diagnostic.compare}, so output is byte-identical across
    runs and worker counts. *)

type config = {
  setup_margin : float;       (** ns, default 0.03 — mirrors [Sta.Smo] *)
  hold_margin : float;        (** ns, default 0.02 *)
  input_delay : float * float; (** (min, max) ns, default (0.05, 0.10) *)
}

val default_config : config

type report = {
  diagnostics : Lint_core.Diagnostic.t list;
  errors : int;    (** unwaived error count *)
  warnings : int;
  infos : int;
}

val ok : report -> bool

(** [run ?config ?waivers ?extra d ~clocks] runs all passes, compiling
    its own {!Sta.Graph}, inside the Obs span [lint.run]; each pass
    opens its own child span.  Records [lint.*] Obs counters (total, per
    severity, and [lint.rule.<ID>] per rule that fired). *)
val run :
  ?config:config ->
  ?waivers:Lint_core.Waiver.t ->
  ?extra:Lint_core.Diagnostic.t list ->
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  report

(** Render the report with {!Lint_core.Emit}. *)
val pp : Format.formatter -> report -> unit
