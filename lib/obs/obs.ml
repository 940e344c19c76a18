(* Flow-wide observability: hierarchical timed spans, counters, gauges
   and log-bucketed histograms, recorded into per-domain append-only
   buffers and merged on read.

   Recording is always on and cheap — one allocation plus an array
   append per event — so the flow, the solvers and the simulators
   instrument themselves unconditionally.  Every domain (the main one
   and every worker spawned by [Jobs.parallel_mapi_array]) lazily owns
   one buffer, registered in a mutex-protected global list, so
   recording never takes a lock and never contends.  Readers
   ([span_tree], [counters], [chrome_trace], ...) merge the buffers;
   they must run outside parallel sections — [Jobs.parallel_mapi_array]
   joins its workers before returning, so calling them from ordinary
   top-level code is safe. *)

type event =
  | Begin of { name : string; ts : float }
  | End of { name : string; ts : float }
  | Count of { name : string; ts : float; incr : int }
  | Gauge of { name : string; ts : float; value : float }
  | Hist of { name : string; value : float; n : int }

type buffer = {
  dom : int;
  mutable events : event array;
  mutable len : int;
}

let registry : buffer list ref = ref []

let registry_lock = Mutex.create ()

let now () = Unix.gettimeofday ()

(* trace time zero; reset () re-bases it *)
let epoch = Atomic.make (now ())

let dummy = End { name = ""; ts = 0.0 }

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int); events = Array.make 64 dummy; len = 0 }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let buffer () = Domain.DLS.get key

let push b e =
  if b.len = Array.length b.events then begin
    let bigger = Array.make (2 * b.len) e in
    Array.blit b.events 0 bigger 0 b.len;
    b.events <- bigger
  end;
  b.events.(b.len) <- e;
  b.len <- b.len + 1

let span name f =
  let b = buffer () in
  push b (Begin { name; ts = now () });
  Fun.protect ~finally:(fun () -> push b (End { name; ts = now () })) f

let count name incr =
  if incr <> 0 then push (buffer ()) (Count { name; ts = now (); incr })

let gauge name value = push (buffer ()) (Gauge { name; ts = now (); value })

(* Histogram samples carry no timestamp: they aggregate into a
   distribution, never into a time series, and skipping the clock read
   keeps sampling cheap enough for simulator inner loops.  A weighted
   sample stands for [n] equal ones. *)
let hist ?(n = 1) name value =
  if n < 0 then invalid_arg (Printf.sprintf "Obs.hist: weight %d" n);
  if n > 0 then push (buffer ()) (Hist { name; value; n })

let gc_span name f =
  let before = Gc.quick_stat () in
  let record_delta () =
    let after = Gc.quick_stat () in
    gauge (name ^ ".gc.minor_words")
      (after.Gc.minor_words -. before.Gc.minor_words);
    gauge (name ^ ".gc.major_words")
      (after.Gc.major_words -. before.Gc.major_words);
    gauge (name ^ ".gc.promoted_words")
      (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  span name (fun () -> Fun.protect ~finally:record_delta f)

let reset () =
  Mutex.lock registry_lock;
  List.iter (fun b -> b.len <- 0) !registry;
  Mutex.unlock registry_lock;
  Atomic.set epoch (now ())

(* Snapshot of all buffers, ordered by domain id (the main domain is
   always the smallest id alive). *)
let events () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  bufs
  |> List.filter (fun b -> b.len > 0)
  |> List.sort (fun a b -> compare a.dom b.dom)
  |> List.map (fun b -> (b.dom, Array.to_list (Array.sub b.events 0 b.len)))

(* --- histograms ------------------------------------------------------ *)

module Histogram = struct
  (* Quarter-octave log buckets addressed through [Float.frexp], so the
     index is exact float arithmetic — no libm, no platform drift.  For
     v > 0 with frexp giving v = m * 2^e, m in [0.5, 1): the mantissa
     quarter is s = trunc ((m - 0.5) * 8) in 0..3 ([m - 0.5] is exact by
     Sterbenz, [* 8] is a power of two), and bucket 4*(e-1) + s covers
     [2^(e-1) * (1 + s/4), 2^(e-1) * (1 + (s+1)/4)).  Sub-unit values
     get negative indices; v <= 0 and NaN land in the underflow count.

     No floating-point sum is kept — cross-domain addition order would
     leak into the value — only integer bucket counts, the underflow
     count and the raw maximum, all of which merge order-independently.
     Percentiles and the mean are derived from the buckets alone, so
     every readout is byte-identical for any THREEPHASE_JOBS. *)

  type t = {
    count : int;                  (* all samples, underflow included *)
    underflow : int;              (* samples <= 0 (and NaN) *)
    max_value : float;            (* raw max; neg_infinity when empty *)
    buckets : (int * int) list;   (* index -> count, sorted, counts > 0 *)
  }

  let empty = { count = 0; underflow = 0; max_value = neg_infinity; buckets = [] }

  let bucket_index v =
    let m, e = Float.frexp v in
    let s = int_of_float ((m -. 0.5) *. 8.0) in
    (4 * (e - 1)) + s

  let bucket_lower i =
    let o = if i >= 0 then i / 4 else (i - 3) / 4 in
    let s = i - (4 * o) in
    Float.ldexp (1.0 +. (float_of_int s /. 4.0)) o

  let bucket_upper i = bucket_lower (i + 1)

  let rec bump i n = function
    | [] -> [(i, n)]
    | (j, c) :: rest when j = i -> (j, c + n) :: rest
    | (j, _) :: _ as l when j > i -> (i, n) :: l
    | b :: rest -> b :: bump i n rest

  let add_n t v n =
    if n < 0 then invalid_arg (Printf.sprintf "Histogram.add_n: weight %d" n)
    else if n = 0 then t
    else if v > 0.0 then
      { count = t.count + n;
        underflow = t.underflow;
        max_value = Float.max t.max_value v;
        buckets = bump (bucket_index v) n t.buckets }
    else
      { t with
        count = t.count + n;
        underflow = t.underflow + n;
        max_value = (if v = v then Float.max t.max_value v else t.max_value) }

  let add t v = add_n t v 1

  let merge a b =
    let rec go xs ys =
      match xs, ys with
      | [], l | l, [] -> l
      | (i, c) :: xr, (j, _) :: _ when i < j -> (i, c) :: go xr ys
      | (i, _) :: _, (j, d) :: yr when j < i -> (j, d) :: go xs yr
      | (i, c) :: xr, (_, d) :: yr -> (i, c + d) :: go xr yr
    in
    { count = a.count + b.count;
      underflow = a.underflow + b.underflow;
      max_value = Float.max a.max_value b.max_value;
      buckets = go a.buckets b.buckets }

  let count t = t.count
  let underflow t = t.underflow
  let max_value t = t.max_value
  let bucket_counts t = t.buckets

  let of_parts ~count ~underflow ~max_value ~buckets =
    { count; underflow; max_value;
      buckets =
        List.filter (fun (_, c) -> c > 0) buckets
        |> List.sort (fun (a, _) (b, _) -> compare a b) }

  let midpoint i = (bucket_lower i +. bucket_upper i) /. 2.0

  (* Nearest-rank on the bucketed distribution; underflow samples read
     as 0.  The representative is the bucket midpoint clamped by the raw
     max (the max lives in the highest occupied bucket, so the clamp
     only sharpens the top bucket). *)
  let percentile t q =
    if t.count = 0 then 0.0
    else begin
      let rank =
        min t.count (max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))))
      in
      if rank <= t.underflow then 0.0
      else begin
        let rec go seen = function
          | [] -> t.max_value
          | (i, c) :: rest ->
            let seen = seen + c in
            if rank <= seen then Float.min (midpoint i) t.max_value
            else go seen rest
        in
        go t.underflow t.buckets
      end
    end

  let mean t =
    if t.count = 0 then 0.0
    else
      let s =
        List.fold_left
          (fun acc (i, c) -> acc +. (float_of_int c *. midpoint i))
          0.0 t.buckets
      in
      s /. float_of_int t.count

  let to_string t =
    let b = Buffer.create 96 in
    Buffer.add_string b
      (Printf.sprintf "count=%d underflow=%d max=%g p50=%g p90=%g p99=%g"
         t.count t.underflow
         (if t.count = 0 then 0.0 else t.max_value)
         (percentile t 0.50) (percentile t 0.90) (percentile t 0.99));
    Buffer.add_string b " buckets=[";
    List.iteri
      (fun k (i, c) ->
        if k > 0 then Buffer.add_char b ' ';
        Buffer.add_string b (Printf.sprintf "%d:%d" i c))
      t.buckets;
    Buffer.add_char b ']';
    Buffer.contents b
end

let histograms () =
  let acc : (string, Histogram.t ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, evs) ->
      List.iter
        (function
          | Hist { name; value; n } ->
            (match Hashtbl.find_opt acc name with
             | Some r -> r := Histogram.add_n !r value n
             | None ->
               Hashtbl.add acc name (ref (Histogram.add_n Histogram.empty value n)))
          | Begin _ | End _ | Count _ | Gauge _ -> ())
        evs)
    (events ());
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- span pairing ---------------------------------------------------- *)

(* The one Begin/End pairing, behind both [span_tree] and
   [chrome_trace]: walks one domain's events in recording order and
   calls [f ev closed] on each, where [closed] is [Some (path, dur,
   self)] for an [End] that closes the innermost open span of its name.
   [path] names the open spans, this one first; [self] is [dur] minus
   the durations of the spans directly nested in it, clamped at zero
   against float rounding.  [span] is structured, so pairs nest
   properly within a domain; an unmatched [End] gets [None]: dropped
   rather than guessed at. *)
let walk_spans evs f =
  let stack = ref [] in
  List.iter
    (fun ev ->
      let closed =
        match ev with
        | Begin { name; ts } ->
          stack := (name, ts, ref 0.0) :: !stack;
          None
        | End { name; ts } ->
          (match !stack with
           | (n, t0, nested) :: rest when String.equal n name ->
             stack := rest;
             let dur = ts -. t0 in
             (match rest with (_, _, p) :: _ -> p := !p +. dur | [] -> ());
             Some
               ( name :: List.map (fun (n, _, _) -> n) rest,
                 dur,
                 Float.max 0.0 (dur -. !nested) )
           | _ -> None)
        | Count _ | Gauge _ | Hist _ -> None
      in
      f ev closed)
    evs

(* --- span trees ------------------------------------------------------ *)

type span_node = {
  node_name : string;
  path : string;
  n_calls : int;
  n_total_s : float;
  n_self_s : float;
  n_children : span_node list;
}

(* Mutable reconstruction trie; one per call of [span_tree]. *)
type trie = {
  mutable t_calls : int;
  mutable t_total : float;
  mutable t_self : float;
  t_children : (string, trie) Hashtbl.t;
}

let span_tree () =
  let fresh () =
    { t_calls = 0; t_total = 0.0; t_self = 0.0; t_children = Hashtbl.create 4 }
  in
  let root = fresh () in
  let child_of node name =
    match Hashtbl.find_opt node.t_children name with
    | Some c -> c
    | None ->
      let c = fresh () in
      Hashtbl.add node.t_children name c;
      c
  in
  (* every domain's walk merges into the same trie: a worker's
     "ilp.solve" at top level lands on the same root child as the main
     domain's, so the tree is the union of the call shapes *)
  List.iter
    (fun (_, evs) ->
      walk_spans evs (fun _ closed ->
          match closed with
          | Some (path, dur, self) ->
            let node =
              List.fold_right (fun name node -> child_of node name) path root
            in
            node.t_calls <- node.t_calls + 1;
            node.t_total <- node.t_total +. dur;
            node.t_self <- node.t_self +. self
          | None -> ()))
    (events ());
  let rec freeze path node =
    Hashtbl.fold (fun name c l -> (name, c) :: l) node.t_children []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, c) ->
           let p = if String.equal path "" then name else path ^ "/" ^ name in
           { node_name = name;
             path = p;
             n_calls = c.t_calls;
             n_total_s = c.t_total;
             n_self_s = c.t_self;
             n_children = freeze p c })
  in
  freeze "" root

let counters () =
  let acc : (string, int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, evs) ->
      List.iter
        (function
          | Count { name; incr; _ } ->
            (match Hashtbl.find_opt acc name with
             | Some r -> r := !r + incr
             | None -> Hashtbl.add acc name (ref incr))
          | Begin _ | End _ | Gauge _ | Hist _ -> ())
        evs)
    (events ());
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges () =
  let acc : (string, float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, evs) ->
      List.iter
        (function
          | Gauge { name; value; _ } ->
            (match Hashtbl.find_opt acc name with
             | Some r -> if value > !r then r := value
             | None -> Hashtbl.add acc name (ref value))
          | Begin _ | End _ | Count _ | Hist _ -> ())
        evs)
    (events ());
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter_of name =
  match List.assoc_opt name (counters ()) with Some v -> v | None -> 0

(* --- Chrome trace_event exporter ------------------------------------ *)

let chrome_trace () =
  let t0 = Atomic.get epoch in
  let us ts = (ts -. t0) *. 1e6 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf "\n  ";
    Buffer.add_string buf s
  in
  (* counter tracks show running totals; totals are kept per name across
     domains, in buffer order, which is what a merged track displays *)
  let totals : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (tid, evs) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
            \"args\":{\"name\":\"domain %d\"}}"
           tid tid);
      (* an E event that closes its span carries duration and self time *)
      walk_spans evs (fun ev closed ->
          match ev with
          | Begin { name; ts } ->
            emit
              (Printf.sprintf
                 "{\"name\":%s,\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.1f}"
                 (Report.Json.quote name) tid (us ts))
          | End { name; ts } ->
            let args =
              match closed with
              | Some (_, dur, self) ->
                Printf.sprintf ",\"args\":{\"dur_us\":%.1f,\"self_us\":%.1f}"
                  (dur *. 1e6) (self *. 1e6)
              | None -> ""
            in
            emit
              (Printf.sprintf
                 "{\"name\":%s,\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.1f%s}"
                 (Report.Json.quote name) tid (us ts) args)
          | Count { name; ts; incr } ->
            let r =
              match Hashtbl.find_opt totals name with
              | Some r -> r
              | None ->
                let r = ref 0 in
                Hashtbl.add totals name r;
                r
            in
            r := !r + incr;
            emit
              (Printf.sprintf
                 "{\"name\":%s,\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\
                  \"args\":{\"value\":%d}}"
                 (Report.Json.quote name) tid (us ts) !r)
          | Gauge { name; ts; value } ->
            emit
              (Printf.sprintf
                 "{\"name\":%s,\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\
                  \"args\":{\"value\":%s}}"
                 (Report.Json.quote name) tid (us ts)
                 (Report.Json.float_token value))
          | Hist _ ->
            (* histogram samples are timestamp-free aggregates; they
               have no sensible place on a timeline *)
            ()))
    (events ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_chrome_trace path =
  let oc = open_out path in
  output_string oc (chrome_trace ());
  close_out oc

(* --- plain-text summary --------------------------------------------- *)

let summary_table () =
  let t =
    Report.Table.create ~title:"Observability summary"
      [ ("metric", Report.Table.Left); ("kind", Report.Table.Left);
        ("calls", Report.Table.Right); ("total s", Report.Table.Right);
        ("self s", Report.Table.Right); ("mean ms", Report.Table.Right);
        ("value", Report.Table.Right) ]
  in
  (* spans render as their reconstructed call tree, two spaces of indent
     per level, with self time split out from nested children *)
  let tree = span_tree () in
  let rec add_node depth n =
    Report.Table.add_row t
      [ String.make (2 * depth) ' ' ^ n.node_name; "span";
        string_of_int n.n_calls;
        Printf.sprintf "%.4f" n.n_total_s;
        Printf.sprintf "%.4f" n.n_self_s;
        Printf.sprintf "%.3f"
          (1e3 *. n.n_total_s /. float_of_int (max 1 n.n_calls));
        "" ];
    List.iter (add_node (depth + 1)) n.n_children
  in
  List.iter (add_node 0) tree;
  let cs = counters () in
  if tree <> [] && cs <> [] then Report.Table.add_rule t;
  List.iter
    (fun (name, v) ->
      Report.Table.add_row t [name; "counter"; ""; ""; ""; ""; string_of_int v])
    cs;
  let hs = histograms () in
  if (tree <> [] || cs <> []) && hs <> [] then Report.Table.add_rule t;
  List.iter
    (fun (name, h) ->
      Report.Table.add_row t
        [ name; "hist"; string_of_int (Histogram.count h); ""; ""; "";
          Printf.sprintf "p50=%g p99=%g max=%g"
            (Histogram.percentile h 0.50) (Histogram.percentile h 0.99)
            (if Histogram.count h = 0 then 0.0 else Histogram.max_value h) ])
    hs;
  let gs = gauges () in
  if (tree <> [] || cs <> [] || hs <> []) && gs <> [] then
    Report.Table.add_rule t;
  List.iter
    (fun (name, v) ->
      Report.Table.add_row t
        [name; "gauge"; ""; ""; ""; ""; Report.Json.float_token v])
    gs;
  t
