(** Bounded domain-level parallelism.

    The worker count comes from the [THREEPHASE_JOBS] environment
    variable when set (values below 1, or unparsable, fall back to
    serial), otherwise from [Domain.recommended_domain_count].  A global
    token budget bounds the total number of live domains across nested
    parallel sections, so the suite loop mapping over benchmarks and
    each runner mapping over variants cannot oversubscribe the machine:
    a map that finds the budget spent runs serially on its caller.

    Each map reserves its tokens, spawns its worker domains, lets every
    participant claim items by index, joins the workers and releases
    the tokens before returning.  Determinism contract: results
    preserve input order, the first exception by input index is
    re-raised with its backtrace, and work distribution never leaks
    into results — a parallel run is observationally identical to a
    serial one.  That extends to observability: [Obs] events recorded
    inside tasks land on per-domain buffers whose merged aggregates
    (summed counters, max-merged gauges) are identical for any worker
    count, and since the workers are joined before a map returns,
    reading [Obs] afterwards is race-free. *)

(** Effective worker count ([THREEPHASE_JOBS] or the domain count). *)
val default_jobs : unit -> int

(** [parallel_mapi_array f items] maps [f i items.(i)] over an array on
    up to [default_jobs ()] domains (the caller included), as many as
    the budget grants. *)
val parallel_mapi_array : (int -> 'a -> 'b) -> 'a array -> 'b array

(** [parallel_map f items] maps [f] over [items], possibly on multiple
    domains; thin wrapper over [parallel_mapi_array].  [f] must not
    depend on evaluation order and, because it may run on a fresh
    domain, must not race on shared mutable state — force any
    lazily-initialised shared structure (e.g. the parsed cell library)
    before calling. *)
val parallel_map : ('a -> 'b) -> 'a list -> 'b list
