(** The lint engine: runs every pass over a design, applies waivers,
    sorts deterministically and produces a report.

    Passes, in rule-id order of what they emit:
    - structural netlist checks ([NET-*], {!Netlist.Check.diagnostics});
    - clock-network audit ([CLK-*], {!Clock_audit});
    - min-delay audit ([HOLD-*], {!Hold_audit});
    - phase-legality audit ([PHASE-*], {!Phase_audit}, plus [PHASE-006]
      for each register whose clock port has no waveform).  Both audits
      read one {!Sta.Smo.analyse} of the design at its default margins,
      the analysis the flow's timing verdict comes from, and share no
      code with [Phase3];
    - reset audit ([RST-*], {!Reset_audit}).

    The phase and min-delay audits need an acyclic combinational network:
    on a design with a combinational cycle they are skipped and [NET-002]
    reports the cycle.

    RTL lints ([RTL-*]) are collected during elaboration and handed in
    through [extra].

    The report's diagnostic list is sorted with
    {!Lint_core.Diagnostic.compare}, so output is byte-identical across
    runs and worker counts. *)

type report = {
  diagnostics : Lint_core.Diagnostic.t list;
  errors : int;    (** unwaived error count *)
  warnings : int;
  infos : int;
}

val ok : report -> bool

(** [run ?waivers ?extra d ~clocks] runs all passes inside the Obs span
    [lint.run], analysing [d] with {!Sta.Smo.analyse} there; each pass
    opens its own child span.  Records [lint.*] Obs counters (total, per
    severity, and [lint.rule.<ID>] per rule that fired). *)
val run :
  ?waivers:Lint_core.Waiver.t ->
  ?extra:Lint_core.Diagnostic.t list ->
  Netlist.Design.t ->
  clocks:Sim.Clock_spec.t ->
  report

(** [audit ~structural a] is {!run} of [a]'s design and clocks, reading
    the structural findings from [structural], which must be
    {!Netlist.Check.diagnostics} of that design, and the timing passes
    off the analysis [a], instead of checking and analysing again. *)
val audit : structural:Lint_core.Diagnostic.t list -> Sta.Smo.t -> report

(** Render the report with {!Lint_core.Emit}. *)
val pp : Format.formatter -> report -> unit
