(** Versioned, machine-comparable QoR run records.

    One record captures everything a later session needs to judge a
    flow/bench/experiment invocation: provenance (what ran, where,
    from which commit), the deterministic quality-of-results metrics
    (register counts, objectives, area, power groups, timing slack,
    equivalence), the deterministic {!Obs} counters, and the
    wall-clock/sampled observability that is {e not} expected to
    reproduce (stage times, the span tree, gauges such as the GC
    pressure samples).

    {2 Determinism contract}

    The fields are split so diffing tools can hold the two classes to
    different standards:

    - [kind], [circuit], [config], [metrics], [counters], [hists] are
      the {b deterministic sections}: for a fixed tree and inputs their
      rendered bytes are identical for any [THREEPHASE_JOBS] setting
      and any machine.  {!Diff} compares them exactly (histograms
      through their {!hist_stats} readouts).
    - [provenance], [wall], [gauges], [tree] (and the free-form
      [headline]) are the {b wall sections}: timestamps, hostnames,
      durations and sampled values.  {!Diff} compares [wall] and
      [gauges] under a relative noise band and never gates on
      [provenance] or [tree].

    {!render} is canonical — fixed key order, metric maps sorted by
    name, one float format (see {!Report.Json.float_token}) — so two records
    agree on the deterministic sections iff their rendered bytes do.

    {2 Versioning}

    [schema_version] is written into every record.  The reader is
    strict about what it understands — a missing required field, a
    wrong type, or a version {e newer} than {!schema_version} is an
    error — but tolerant of unknown fields, so older readers accept
    records written by forward-compatible extensions of the same
    version. *)

val schema_version : int

type provenance = {
  circuit : string;        (** benchmark/design name *)
  kind : string;           (** ["flow"], ["bench.sim"], ["bench.ilp"], ["experiment"], ... *)
  git_rev : string option; (** [git rev-parse --short HEAD] when available *)
  jobs : int;              (** effective [THREEPHASE_JOBS] *)
  hostname : string;
  timestamp : string;      (** UTC ISO-8601 *)
}

(** One node of the recorded span call tree ({!Obs.span_tree} with the
    path dropped — it is recomputable from the nesting). *)
type tree_node = {
  t_name : string;
  t_calls : int;
  t_total_s : float;
  t_self_s : float;
  t_children : tree_node list;
}

type t = {
  version : int;
  prov : provenance;
  config : (string * Report.Json.t) list;  (** flow/experiment knobs, as written *)
  metrics : (string * float) list;  (** deterministic QoR, sorted by name *)
  counters : (string * int) list;   (** deterministic Obs counters, sorted *)
  hists : (string * Obs.Histogram.t) list;
  (** deterministic Obs histograms, sorted; gated through {!hist_stats} *)
  headline : (string * Report.Json.t) list;
  (** free-form summary for humans and dashboards (the [BENCH_*.json]
      headline); informational, never gated *)
  wall : (string * float) list;     (** wall-clock seconds, sorted *)
  gauges : (string * float) list;   (** max-merged Obs gauges, sorted *)
  tree : tree_node list;
  (** span call tree: every span's calls, total and self seconds;
      wall section *)
}

(** Build a record; every metric map is sorted by name (canonical
    order), so callers need not pre-sort. *)
val make :
  ?config:(string * Report.Json.t) list ->
  ?metrics:(string * float) list ->
  ?counters:(string * int) list ->
  ?hists:(string * Obs.Histogram.t) list ->
  ?headline:(string * Report.Json.t) list ->
  ?wall:(string * float) list ->
  ?gauges:(string * float) list ->
  ?tree:tree_node list ->
  provenance -> t

(** Deterministic scalar readouts of one histogram, namespaced under
    its name: [<name>.count], [.p50], [.p90], [.p99], [.max] (max is 0
    when empty).  These are the entries {!Diff} ratchets and
    [qor trend] tracks. *)
val hist_stats : string -> Obs.Histogram.t -> (string * float) list

(** {!hist_stats} over a whole [hists] section, in order. *)
val flatten_hists :
  (string * Obs.Histogram.t) list -> (string * float) list

val to_json : t -> Report.Json.t

(** Canonical pretty rendering (the per-run file format), trailing
    newline included. *)
val render : t -> string

(** Canonical one-line rendering (the [history.jsonl] format). *)
val render_compact : t -> string

val of_json : Report.Json.t -> (t, string) result

(** [parse text] — [render]/[parse] round-trip exactly. *)
val parse : string -> (t, string) result

(** Deterministic metric lookup across [metrics] and [counters]. *)
val metric : t -> string -> float option
