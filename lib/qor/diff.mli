(** Record-against-baseline comparison with per-metric tolerance
    bands — the regression gate behind [ff2latch qor check].

    {2 Tolerance semantics}

    Metrics fall in two classes, decided by the record section they
    live in:

    - {b Exact} ([metrics], [counters] and [hists] sections —
      histograms through their {!Record.hist_stats} readouts): counts,
      objectives, area, power, slack are deterministic, so {e any}
      numeric difference is a change.  [NaN = NaN] counts as
      unchanged (a power model that produced NaN yesterday and NaN
      today has not regressed); NaN against a finite value is always
      a regression, whichever side it is on.  A counter or histogram
      that one record lacks reads as 0 (an empty histogram): {!Obs}
      records a counter only once an increment is nonzero and a
      histogram only from its first sample, so a counter going from
      absent to N, or a histogram appearing, is a change like any
      other.  A [metrics] entry that the baseline lacks is new.
    - {b Noisy} ([wall] and [gauges] sections): wall-clock and
      sampled values.  A difference within
      [max (noise_band * |baseline|, abs_floor)] — boundary
      {e inclusive} — is classified unchanged.  The default band is
      30% with a 10 ms floor, wide enough for CI machine jitter.

    Whether a change is an improvement or a regression depends on the
    metric's direction: slack, coverage, speedup-like and ok-flags
    are better higher; everything else (counts, power, area, nodes,
    seconds) is better lower.

    {2 Gate}

    {!gate_failures} is what CI fails on: every exact metric that
    changed {e in either direction} or disappeared.  An improvement
    fails the gate too — that is the point of a ratchet; refresh the
    baseline to bank it.  Noisy regressions are reported separately
    ({!wall_regressions}) and do not fail the gate unless the caller
    opts in.

    {2 Attribution}

    For every gated {e metric} that changed, the diff also asks {e why}:
    it maps the metric to the flow stage that owns it, then ranks the
    co-located telemetry — counters, histogram readouts and
    out-of-band gauges emitted by that stage's implementation — that
    moved in the same run.  The top suspects land in {!t.attributions}
    and are printed by [qor check] under the failure verdict, so a CI
    failure says not just "power regressed" but "and the clock-gating
    simulation saw 40% more kernel events". *)

type cls =
  | Improved
  | Regressed
  | Unchanged
  | Missing_current
  (** in the baseline, absent from the new record ([metrics], [wall]
      and [gauges] only: an absent counter or histogram reads as 0) *)
  | Missing_baseline  (** new metric, absent from the baseline (ditto) *)

type section = Metric | Counter | Hist | Wall | Gauge

type entry = {
  name : string;
  section : section;
  baseline : float option;
  current : float option;
  cls : cls;
}

(** One ranked piece of evidence behind an attribution: a co-located
    counter/histogram/gauge entry that also moved. *)
type suspect = {
  su_name : string;
  su_section : section;
  su_baseline : float option;
  su_current : float option;
  su_score : float;
  (** [|delta| / max 1 |baseline|]; [1.0] when one side is missing *)
}

type attribution = {
  at_metric : string;  (** the gated metric that changed *)
  at_stage : string;   (** the flow stage that owns it *)
  at_suspects : suspect list;  (** ranked, best first, at most three *)
}

type t = {
  circuit : string;
  baseline_kind : string;
  entries : entry list;        (** deterministic sections first, then noisy *)
  gate_failures : string list; (** exact metrics changed or missing *)
  wall_regressions : string list; (** noisy metrics beyond the band *)
  attributions : attribution list;
  (** one per changed [Metric] entry with at least one suspect *)
}

(** The flow stage owning a gated metric name, when known — the same
    mapping {!run} uses to pick suspects. *)
val stage_of_metric : string -> string option

(** [run ~baseline current] — [noise_band] is the relative tolerance
    for noisy metrics (default [0.30]), [abs_floor] the absolute floor
    in the metric's own unit (default [0.01]). *)
val run :
  ?noise_band:float -> ?abs_floor:float -> baseline:Record.t -> Record.t -> t

(** True iff the gate passes; [fail_on_wall] (default false) also
    requires {!wall_regressions} to be empty. *)
val ok : ?fail_on_wall:bool -> t -> bool

val cls_name : cls -> string
val section_name : section -> string

(** One line per attribution, e.g.
    ["power.total_mw (stage power): suspect sim.kernel.events \[counter\] 1200 -> 1800"]
    — for console output and CI failure messages. *)
val attribution_lines : t -> string list

(** Plain-text diff table (all entries; unchanged rows included so the
    table documents coverage). *)
val table : t -> Report.Table.t

(** The same diff as a markdown report (changed entries only, plus a
    verdict line) — for CI summaries and PR comments. *)
val markdown : t -> string
