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
    {!Jobs.parallel_mapi_array}/{!Jobs.parallel_map}) lazily owns a
    private buffer registered in a global list, so the write path never
    takes a lock.  Read-side functions ({!span_stats}, {!counters},
    {!chrome_trace}, ...) merge all buffers; call them only while no
    worker domain is recording.  {!Jobs.parallel_mapi_array} joins its
    workers before returning, so ordinary sequential code — the CLI
    after a flow run, the benchmark harness after a suite — reads
    safely.

    Merging is deterministic by construction where it matters:
    counters are summed, gauges take the maximum, and histogram bucket
    counts are summed — all order-independent reductions — so the
    aggregate values are identical for any [THREEPHASE_JOBS] setting.
    Span statistics sum durations per name, also order-independent;
    only the raw event interleaving across domains varies run to run.
    See docs/OBS.md for the full event model. *)

(** One recorded event.  [Begin]/[End] bracket a {!span} (they nest
    properly within one domain because [span] is structured); [Count]
    carries a counter increment; [Gauge] a sampled value; [Hist] one
    histogram sample ([exec] marks execution-shaped distributions, see
    {!hist}).  Timestamps are [Unix.gettimeofday] seconds; histogram
    samples carry none — they aggregate into distributions, never into
    time series, and skipping the clock read keeps them cheap enough
    for simulator inner loops. *)
type event =
  | Begin of { name : string; ts : float }
  | End of { name : string; ts : float }
  | Count of { name : string; ts : float; incr : int }
  | Gauge of { name : string; ts : float; value : float }
  | Hist of { name : string; value : float; exec : bool }

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
    [name].  Bucket counts sum across domains, so the merged histogram
    — and every readout derived from it — is byte-identical for any
    [THREEPHASE_JOBS], {e provided the recorded values themselves are
    deterministic}.  For values that are shaped by the execution
    (stage latencies) pass [~exec:true]: the sample goes to a separate
    channel read by {!exec_histograms}, excluded from {!histograms}
    and from the determinism contract — the same split as counters
    (deterministic) versus wall/gauges (noisy) in run records. *)
val hist : ?exec:bool -> string -> float -> unit

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

(** Sample {!Gc.quick_stat} as gauges: [<prefix>.minor_words],
    [<prefix>.major_words], [<prefix>.promoted_words],
    [<prefix>.heap_words], [<prefix>.compactions] (default prefix
    ["gc"]).  The words counters are cumulative for the calling
    domain, so the max-merge reports the high-water mark. *)
val gc_sample : ?prefix:string -> unit -> unit

(** [gc_span name f] is {!span}[ name f] plus allocation-pressure
    gauges for [f] itself: the {!Gc.quick_stat} deltas across the call
    are recorded as [<name>.gc.minor_words], [<name>.gc.major_words]
    and [<name>.gc.promoted_words] (recorded even when [f] raises,
    like the span's [End]).  Deltas are per-call; the max-merge keeps
    the worst call per name.  The flow brackets every pipeline stage
    with this, so run records capture per-stage allocation pressure. *)
val gc_span : string -> (unit -> 'a) -> 'a

(** Clear every buffer and re-base the trace clock.  Call only while no
    worker domain is recording. *)
val reset : unit -> unit

(** Raw event log, one [(domain_id, events)] pair per domain that
    recorded anything, ordered by domain id; events within a domain are
    in recording order.  Exposed for tests and custom exporters. *)
val events : unit -> (int * event list) list

(** Aggregated view of all spans with one name. *)
type span_stat = {
  span_name : string;
  calls : int;    (** completed [Begin]/[End] pairs *)
  total_s : float;  (** summed wall-clock duration, seconds *)
}

(** Per-name span statistics, merged across domains, sorted by name. *)
val span_stats : unit -> span_stat list

(** One node of the reconstructed span call tree. *)
type span_node = {
  node_name : string;       (** the span name as recorded *)
  path : string;            (** ["/"]-joined names from the root *)
  n_calls : int;
  n_total_s : float;        (** summed duration of this node's calls *)
  n_self_s : float;         (** total minus nested children (>= 0) *)
  n_children : span_node list;  (** sorted by name *)
}

(** The Begin/End nesting reconstructed as a call tree, merged across
    domains: spans with the same path aggregate into one node, children
    sorted by name.  A span recorded at a worker domain's top level
    (e.g. an ILP component solve inside [Jobs.parallel_map]) has no
    enclosing Begin in {e that} domain's buffer, so it appears as a
    root — the per-domain nesting is real, the cross-domain parentage
    is not recorded.  Self time is total minus the summed durations of
    directly nested spans, clamped at zero against float rounding. *)
val span_tree : unit -> span_node list

(** Summed counters, sorted by name.  Deterministic across
    [THREEPHASE_JOBS] settings. *)
val counters : unit -> (string * int) list

(** Max-merged gauges, sorted by name. *)
val gauges : unit -> (string * float) list

(** Bucket-merged {e deterministic} histograms (samples recorded
    without [~exec:true]), sorted by name.  Byte-identical readouts for
    any [THREEPHASE_JOBS]. *)
val histograms : unit -> (string * Histogram.t) list

(** Bucket-merged execution-shaped histograms ([~exec:true] samples):
    stage latencies — honest distributions, but dependent on the
    machine.  Kept out of {!histograms} so the determinism contract
    stays literal. *)
val exec_histograms : unit -> (string * Histogram.t) list

(** All deterministic histograms as ["name: " ^ ]{!Histogram.to_string}
    lines — the byte-comparable digest the determinism tests diff. *)
val render_histograms : unit -> string

(** Total seconds spent in spans named [name]; [0.0] if none. *)
val time_of : string -> float

(** Completed spans named [name]; [0] if none. *)
val calls_of : string -> int

(** Value of counter [name]; [0] if never incremented. *)
val counter_of : string -> int

(** The whole event log as Chrome [trace_event] JSON — load it in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  Spans
    become [ph:"B"]/[ph:"E"] duration events (one track per domain; the
    [E] event's args carry [dur_us] and [self_us] from the same
    reconstruction as {!span_tree}), counters and gauges become
    [ph:"C"] counter tracks; histogram samples are timestamp-free and
    do not appear.  Timestamps are microseconds since the last
    {!reset} (or process start). *)
val chrome_trace : unit -> string

(** [write_chrome_trace path] writes {!chrome_trace} to [path]. *)
val write_chrome_trace : string -> unit

(** Everything recorded so far — the span tree (indented, with self
    time), then counters, then histograms (deterministic, then
    execution-shaped marked [hist~]), then gauges — as a
    {!Report.Table} ready to print. *)
val summary_table : unit -> Report.Table.t
