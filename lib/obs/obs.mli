(** Flow-wide observability: timed spans, counters, gauges and
    log-bucketed histograms, with a Chrome [trace_event] exporter and a
    plain-text summary table.

    Every subsystem of the conversion flow instruments itself through
    this module: {!Phase3.Flow} brackets each pipeline stage in a
    {!span}, {!Ilp.Branch_bound} counts search nodes, LP solves and
    propagations, {!Sim.Kernel} counts lane-cycles and toggles, and so
    on.  Recording is unconditional and cheap — one event record
    appended to a growable per-domain array — so there is no "enabled"
    switch to thread through the code.

    {2 Threading model}

    Each domain (the main one and every worker spawned by
    {!Jobs.parallel_mapi_array}) lazily owns a private buffer
    registered in a global list, so the write path never takes a lock.
    Read-side functions ({!span_tree}, {!counters}, {!chrome_trace},
    ...) merge all buffers; call them only while no worker domain is
    recording.  {!Jobs.parallel_mapi_array} joins its
    workers before returning, so ordinary sequential code — the CLI
    after a flow run, the benchmark harness after a suite — reads
    safely.

    Merging is deterministic by construction where it matters:
    counters are summed, gauges take the maximum, and histogram bucket
    counts are summed — all order-independent reductions — so the
    aggregate values are identical for any [THREEPHASE_JOBS] setting.
    The span tree sums durations per call path, also
    order-independent; only the raw event interleaving across domains
    varies run to run.
    See docs/OBS.md for the full event model. *)

(** One recorded event.  [Begin]/[End] bracket a {!span} (they nest
    properly within one domain because [span] is structured); [Count]
    carries a counter increment; [Gauge] a sampled value; [Hist] one
    histogram sample of weight [n].  Timestamps are [Unix.gettimeofday]
    seconds; histogram samples carry none — they aggregate into
    distributions, never into time series, and skipping the clock read
    keeps them cheap enough for simulator inner loops. *)
type event =
  | Begin of { name : string; ts : float }
  | End of { name : string; ts : float }
  | Count of { name : string; ts : float; incr : int }
  | Gauge of { name : string; ts : float; value : float }
  | Hist of { name : string; value : float; n : int }

(** [span name f] runs [f ()] bracketed by [Begin]/[End] events on the
    calling domain's buffer.  The [End] event is recorded even when [f]
    raises, so pairs always balance.  Spans nest: a [span] inside [f]
    appears as a child in the Chrome trace and in {!span_tree}. *)
val span : string -> (unit -> 'a) -> 'a

(** [count name n] adds [n] to the counter [name].  Increments of zero
    are dropped.  Counters merge across domains by summation, which is
    deterministic for any domain count. *)
val count : string -> int -> unit

(** [gauge name v] records a sample of the gauge [name].  Gauges merge
    across domains and samples by taking the {e maximum} — an
    order-independent choice, but one that erases the distribution;
    prefer {!hist} when the spread matters. *)
val gauge : string -> float -> unit

(** [hist name v] records one sample into the log-bucketed histogram
    [name].  [~n] (default 1) weights it: one event standing for [n]
    samples of [v], equal to [n] calls in every readout.  A weight of 0
    records nothing; a negative one raises [Invalid_argument].  Bucket
    counts sum across domains, so the merged histogram
    — and every readout derived from it — is byte-identical for any
    [THREEPHASE_JOBS], {e provided the recorded values themselves are
    deterministic}.  Wall-clock durations belong in spans, not here. *)
val hist : ?n:int -> string -> float -> unit

(** Deterministically mergeable log-bucketed histogram.  Buckets are
    quarter-octaves addressed through [Float.frexp]: bucket [4*o + s]
    ([s] in 0..3) covers [[2^o * (1 + s/4), 2^o * (1 + (s+1)/4))], so
    sub-unit values get negative indices and resolution is a constant
    ~6% of the value.  Only integer bucket counts, the underflow count
    (samples [<= 0] and NaN) and the raw maximum are stored — no float
    sum whose addition order could leak — and {!percentile}/{!mean}
    are derived from the buckets alone, so all readouts are exact
    functions of an order-independent merge. *)
module Histogram : sig
  type t

  val empty : t

  (** Add one sample; pure (returns a new histogram). *)
  val add : t -> float -> t

  (** [add_n t v n] adds [n] samples of [v] at once: equal to [n]
      applications of {!add} in every readout (count, underflow,
      buckets, max, percentiles).  [n = 0] returns [t]; a negative [n]
      raises [Invalid_argument]. *)
  val add_n : t -> float -> int -> t

  (** Commutative, associative bucket-count merge. *)
  val merge : t -> t -> t

  (** Bucket index for a value [> 0]. *)
  val bucket_index : float -> int

  (** Inclusive lower / exclusive upper bound of a bucket. *)
  val bucket_lower : int -> float

  val bucket_upper : int -> float

  val count : t -> int
  val underflow : t -> int

  (** Raw maximum over all samples; [neg_infinity] when empty. *)
  val max_value : t -> float

  (** Occupied buckets as [(index, count)] pairs, sorted by index. *)
  val bucket_counts : t -> (int * int) list

  (** Rebuild from stored parts (run-record reader); buckets are
      sorted and zero counts dropped. *)
  val of_parts :
    count:int -> underflow:int -> max_value:float ->
    buckets:(int * int) list -> t

  (** Nearest-rank percentile, [q] in [0..1]; underflow samples read as
      0, other buckets as their midpoint clamped by {!max_value}.
      [0.0] when empty. *)
  val percentile : t -> float -> float

  (** Bucket-midpoint mean (underflow reads as 0); [0.0] when empty. *)
  val mean : t -> float

  (** One-line rendering: count, underflow, max, p50/p90/p99 and the
      occupied buckets.  A deterministic histogram renders
      byte-identically for any [THREEPHASE_JOBS]. *)
  val to_string : t -> string
end

(** [gc_span name f] is {!span}[ name f] plus allocation-pressure
    gauges for [f] itself, recorded even when [f] raises, like the
    span's [End]: [<name>.gc.minor_words], the {!Gc.minor_words} delta
    across the call — every word [f] allocates on the minor heap, plus
    the span's own few — and [<name>.gc.major_words] and
    [<name>.gc.promoted_words], the {!Gc.quick_stat} deltas, which
    advance only at collections.  Deltas are per-call; the max-merge
    keeps the worst call per name.  The flow brackets every pipeline stage
    with this, so run records capture per-stage allocation pressure. *)
val gc_span : string -> (unit -> 'a) -> 'a

(** Clear every buffer and re-base the trace clock.  Call only while no
    worker domain is recording. *)
val reset : unit -> unit

(** Raw event log, one [(domain_id, events)] pair per domain that
    recorded anything, ordered by domain id; events within a domain are
    in recording order.  Exposed for tests and custom exporters. *)
val events : unit -> (int * event list) list

(** One node of the reconstructed span call tree. *)
type span_node = {
  node_name : string;       (** the span name as recorded *)
  path : string;            (** ["/"]-joined names from the root *)
  n_calls : int;            (** completed [Begin]/[End] pairs *)
  n_total_s : float;        (** summed duration of this node's calls *)
  n_self_s : float;         (** total minus nested children (>= 0) *)
  n_children : span_node list;  (** sorted by name *)
}

(** The Begin/End nesting reconstructed as a call tree, merged across
    domains: spans with the same path aggregate into one node, children
    sorted by name.  A span recorded at a worker domain's top level
    (e.g. a [flow.*] stage of a runner variant built inside
    [Jobs.parallel_mapi_array]) has no enclosing Begin in {e that}
    domain's buffer, so it appears as a root — the per-domain nesting
    is real, the cross-domain parentage is not recorded.  Self time is
    each call's duration minus the durations of the spans directly
    nested in it, clamped at zero against float rounding, summed over
    calls.  This is the one rollup of spans; a per-name total is a
    lookup in it. *)
val span_tree : unit -> span_node list

(** Summed counters, sorted by name.  Deterministic across
    [THREEPHASE_JOBS] settings. *)
val counters : unit -> (string * int) list

(** Max-merged gauges, sorted by name. *)
val gauges : unit -> (string * float) list

(** Bucket-merged histograms, sorted by name.  Byte-identical
    readouts for any [THREEPHASE_JOBS]. *)
val histograms : unit -> (string * Histogram.t) list

(** Value of counter [name]; [0] if never incremented. *)
val counter_of : string -> int

(** The whole event log as Chrome [trace_event] JSON — load it in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Spans
    become [ph:"B"]/[ph:"E"] duration events (one track per domain; the
    [E] event's args carry [dur_us] and [self_us], paired by the same
    walk as {!span_tree}), counters and gauges become
    [ph:"C"] counter tracks; histogram samples are timestamp-free and
    do not appear.  Timestamps are microseconds since the last
    {!reset} (or process start). *)
val chrome_trace : unit -> string

(** [write_chrome_trace path] writes {!chrome_trace} to [path]. *)
val write_chrome_trace : string -> unit

(** Everything recorded so far — the span tree (indented, with self
    time), then counters, then histograms, then gauges — as a
    {!Report.Table} ready to print. *)
val summary_table : unit -> Report.Table.t
