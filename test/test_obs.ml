(* lib/obs: span structure, cross-domain counter merging, the Chrome
   trace_event exporter, and the flow-level guarantee that every enabled
   stage emits exactly one span. *)

let parse_json text =
  match Report.Json.parse text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "invalid JSON: %s" msg

(* Validate a Chrome trace_event JSON document: top-level object with a
   traceEvents array; every event carries name/ph/pid (and tid/ts for
   B/E/C); B/E events balance like brackets per tid with matching
   names and non-decreasing timestamps, and every E carries its
   duration and self time. *)
let validate_chrome_trace (text : string) =
  let doc = parse_json text in
  let events =
    match Report.Json.member "traceEvents" doc with
    | Some (Report.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add stacks tid r;
      r
  in
  let str k e =
    match Report.Json.member k e with
    | Some (Report.Json.Str s) -> s
    | _ -> Alcotest.fail (Printf.sprintf "event missing string %S" k)
  in
  let num k e =
    match Report.Json.member k e with
    | Some (Report.Json.Num f) -> f
    | _ -> Alcotest.fail (Printf.sprintf "event missing number %S" k)
  in
  List.iter
    (fun e ->
      let ph = str "ph" e in
      let name = str "name" e in
      ignore (num "pid" e);
      match ph with
      | "M" -> ()
      | "B" | "E" | "C" ->
        let tid = int_of_float (num "tid" e) in
        let ts = num "ts" e in
        let stack = stack_of tid in
        (match !stack with
         | (_, prev_ts) :: _ when ts < prev_ts -.1e-9 ->
           Alcotest.fail
             (Printf.sprintf "timestamp moved backwards on tid %d" tid)
         | _ -> ());
        (match ph with
         | "B" -> stack := (name, ts) :: !stack
         | "E" ->
           (match Report.Json.member "args" e with
            | Some args ->
              ignore (num "dur_us" args);
              ignore (num "self_us" args)
            | None -> Alcotest.failf "E %S without args" name);
           (match !stack with
            | (top, _) :: rest when String.equal top name -> stack := rest
            | (top, _) :: _ ->
              Alcotest.fail
                (Printf.sprintf "E %S does not match open span %S" name top)
            | [] -> Alcotest.fail (Printf.sprintf "E %S with no open span" name))
         | _ ->
           (match Report.Json.member "args" e with
            | Some (Report.Json.Obj _) -> ()
            | _ -> Alcotest.fail "C event without args"))
      | other -> Alcotest.fail (Printf.sprintf "unknown phase %S" other))
    events;
  Hashtbl.iter
    (fun tid stack ->
      if !stack <> [] then
        Alcotest.fail (Printf.sprintf "tid %d left %d spans open" tid
                         (List.length !stack)))
    stacks;
  List.length events

(* every node of a span tree, parents before their children *)
let rec flatten nodes =
  List.concat_map (fun n -> n :: flatten n.Obs.n_children) nodes

(* completed calls of every span named [name], wherever it sits in
   [Obs.span_tree ()]; 0 when there is none *)
let calls name =
  List.fold_left
    (fun acc n ->
      if String.equal n.Obs.node_name name then acc + n.Obs.n_calls else acc)
    0
    (flatten (Obs.span_tree ()))

(* --- span structure -------------------------------------------------- *)

let test_span_nesting () =
  Obs.reset ();
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner_a" (fun () -> ());
        Obs.span "inner_b" (fun () -> 7))
  in
  Alcotest.(check int) "span returns" 7 r;
  let evs = List.concat_map snd (Obs.events ()) in
  let names =
    List.filter_map
      (function
        | Obs.Begin { name; _ } -> Some ("B:" ^ name)
        | Obs.End { name; _ } -> Some ("E:" ^ name)
        | Obs.Count _ | Obs.Gauge _ | Obs.Hist _ -> None)
      evs
  in
  Alcotest.(check (list string)) "B/E order"
    [ "B:outer"; "B:inner_a"; "E:inner_a"; "B:inner_b"; "E:inner_b"; "E:outer" ]
    names;
  match Obs.span_tree () with
  | [outer] ->
    Alcotest.(check string) "root" "outer" outer.Obs.node_name;
    Alcotest.(check int) "outer calls" 1 outer.Obs.n_calls;
    Alcotest.(check (list string)) "inners nest in outer"
      ["inner_a"; "inner_b"]
      (List.map (fun n -> n.Obs.node_name) outer.Obs.n_children);
    let inner =
      List.fold_left
        (fun acc n -> acc +. n.Obs.n_total_s)
        0.0 outer.Obs.n_children
    in
    Alcotest.(check bool) "outer covers inners" true
      (outer.Obs.n_total_s >= inner)
  | roots -> Alcotest.failf "%d roots, expected one" (List.length roots)

let test_span_exception () =
  Obs.reset ();
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Alcotest.(check int) "End recorded despite raise" 1 (calls "boom");
  ignore (validate_chrome_trace (Obs.chrome_trace ()))

(* --- counters and gauges --------------------------------------------- *)

let test_counter_merge_deterministic () =
  Obs.reset ();
  let items = Array.init 40 (fun i -> i + 1) in
  let serial = Array.map (fun i -> Obs.count "merge.serial" i; i) items in
  let parallel =
    Jobs.parallel_mapi_array (fun _ i -> Obs.count "merge.parallel" i; i) items
  in
  Alcotest.(check (array int)) "parallel map order preserved" serial parallel;
  let expected = Array.fold_left ( + ) 0 items in
  (* the parallel sum lands across several domain buffers, the serial
     one in a single buffer: the merged totals must be identical *)
  Alcotest.(check int) "serial total" expected (Obs.counter_of "merge.serial");
  Alcotest.(check int) "parallel total" expected (Obs.counter_of "merge.parallel");
  Alcotest.(check int) "absent counter is 0" 0 (Obs.counter_of "no.such")

let test_gauge_max_merge () =
  Obs.reset ();
  ignore
    (Jobs.parallel_mapi_array
       (fun _ v -> Obs.gauge "g.depth" (float_of_int v))
       [| 3; 41; 7; 2 |]);
  Obs.gauge "g.depth" 5.0;
  match List.assoc_opt "g.depth" (Obs.gauges ()) with
  | Some v -> Alcotest.(check (float 1e-9)) "max wins" 41.0 v
  | None -> Alcotest.fail "gauge missing"

(* --- Chrome exporter ------------------------------------------------- *)

let test_chrome_roundtrip () =
  Obs.reset ();
  Obs.span "stage \"one\"" (fun () ->
      Obs.count "events" 3;
      Obs.span "nested\n" (fun () -> Obs.gauge "depth" 2.0));
  ignore
    (Jobs.parallel_mapi_array
       (fun _ i -> Obs.span "worker" (fun () -> Obs.count "events" i))
       [| 1; 2; 3 |]);
  let n = validate_chrome_trace (Obs.chrome_trace ()) in
  Alcotest.(check bool) "several events survive" true (n >= 8)

(* a GC-sized gauge keeps every digit in the trace, where %g would
   round 19326848 to 19326800 *)
let test_chrome_gauge_exact () =
  Obs.reset ();
  Obs.gauge "gc.minor_words" 19326848.0;
  let value =
    List.find_map
      (fun e ->
        match Report.Json.member "name" e, Report.Json.member "args" e with
        | Some (Report.Json.Str "gc.minor_words"), Some args ->
          (match Report.Json.member "value" args with
           | Some (Report.Json.Num v) -> Some v
           | _ -> None)
        | _ -> None)
      (match
         Report.Json.member "traceEvents" (parse_json (Obs.chrome_trace ()))
       with
       | Some (Report.Json.Arr evs) -> evs
       | _ -> Alcotest.fail "no traceEvents array")
  in
  Alcotest.(check (option (float 0.0))) "gauge reads back exactly"
    (Some 19326848.0) value

let test_summary_table () =
  Obs.reset ();
  Obs.span "sum.span" (fun () -> Obs.count "sum.counter" 11);
  Obs.gauge "sum.gauge" 1.5;
  let text = Report.Table.render (Obs.summary_table ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in summary") true
        (Astring.String.is_infix ~affix:needle text))
    ["sum.span"; "sum.counter"; "sum.gauge"; "11"]

(* --- histograms ------------------------------------------------------- *)

let test_hist_bucket_boundaries () =
  let idx = Obs.Histogram.bucket_index in
  (* quarter-octave buckets: [2^o * (1 + s/4), 2^o * (1 + (s+1)/4)) *)
  Alcotest.(check int) "1.0 -> 0" 0 (idx 1.0);
  Alcotest.(check int) "1.25 -> 1" 1 (idx 1.25);
  Alcotest.(check int) "1.5 -> 2" 2 (idx 1.5);
  Alcotest.(check int) "1.75 -> 3" 3 (idx 1.75);
  Alcotest.(check int) "2.0 -> 4" 4 (idx 2.0);
  Alcotest.(check int) "0.5 -> -4" (-4) (idx 0.5);
  Alcotest.(check int) "0.75 -> -2" (-2) (idx 0.75);
  (* the lower boundary belongs to its bucket; a hair below does not *)
  Alcotest.(check int) "2.5 -> 5" 5 (idx 2.5);
  Alcotest.(check int) "just below 2.5" 4 (idx 2.4999999);
  (* lower/upper reconstruct the bucket the value hashed into *)
  List.iter
    (fun v ->
      let i = idx v in
      Alcotest.(check bool)
        (Printf.sprintf "%g in [lower, upper) of bucket %d" v i)
        true
        (Obs.Histogram.bucket_lower i <= v
         && v < Obs.Histogram.bucket_upper i))
    [1.0; 1.1; 1.25; 2.0; 3.7; 0.5; 0.013; 1234.5; 7e18; 1e-12];
  (* buckets tile: upper of i = lower of i+1 *)
  List.iter
    (fun i ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "bucket %d tiles" i)
        (Obs.Histogram.bucket_upper i)
        (Obs.Histogram.bucket_lower (i + 1)))
    [-9; -4; -1; 0; 3; 4; 17]

let test_hist_percentiles () =
  let h =
    List.fold_left Obs.Histogram.add Obs.Histogram.empty
      (List.init 100 (fun i -> float_of_int (i + 1)))
  in
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "max is exact" 100.0 (Obs.Histogram.max_value h);
  (* nearest-rank percentile lands in the right bucket: the readout is
     the bucket midpoint, so check bucket membership not equality *)
  let check_pct q lo hi =
    let v = Obs.Histogram.percentile h q in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f in [%g, %g]" (100.0 *. q) lo hi)
      true
      (lo <= v && v <= hi)
  in
  (* rank 50 -> value 50, bucket [48, 56) *)
  check_pct 0.50 48.0 56.0;
  (* rank 99 -> value 99, bucket [96, 112) clamped by max *)
  check_pct 0.99 96.0 100.0;
  (* p100 is clamped by the exact max *)
  Alcotest.(check (float 0.0)) "p100 <= max" 100.0
    (Float.max (Obs.Histogram.percentile h 1.0) 100.0);
  (* non-positive and NaN samples land in underflow, not buckets *)
  let hu = Obs.Histogram.add (Obs.Histogram.add h 0.0) (-3.0) in
  Alcotest.(check int) "underflow counted" 2 (Obs.Histogram.underflow hu);
  Alcotest.(check int) "underflow in count" 102 (Obs.Histogram.count hu);
  Alcotest.(check (float 0.0)) "underflow reads as 0" 0.0
    (Obs.Histogram.percentile hu 0.01)

let hist_arbitrary =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (map
           (fun (sign, m) ->
             (* spread across magnitudes, include non-positives *)
             if sign = 0 then 0.0
             else if sign = 1 then -.m
             else m *. m *. m)
           (pair (int_bound 4) (float_bound_inclusive 50.0))))
  in
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    gen

let prop_hist_merge_is_sequential_add =
  QCheck.Test.make ~name:"hist merge == sequential add" ~count:200
    (QCheck.pair hist_arbitrary hist_arbitrary)
    (fun (xs, ys) ->
      let of_list l = List.fold_left Obs.Histogram.add Obs.Histogram.empty l in
      let merged = Obs.Histogram.merge (of_list xs) (of_list ys) in
      let seq = of_list (xs @ ys) in
      String.equal (Obs.Histogram.to_string merged)
        (Obs.Histogram.to_string seq))

let prop_hist_merge_commutes =
  QCheck.Test.make ~name:"hist merge commutes and associates" ~count:200
    (QCheck.triple hist_arbitrary hist_arbitrary hist_arbitrary)
    (fun (xs, ys, zs) ->
      let of_list l = List.fold_left Obs.Histogram.add Obs.Histogram.empty l in
      let a = of_list xs and b = of_list ys and c = of_list zs in
      let s = Obs.Histogram.to_string in
      String.equal (s (Obs.Histogram.merge a b)) (s (Obs.Histogram.merge b a))
      && String.equal
           (s (Obs.Histogram.merge (Obs.Histogram.merge a b) c))
           (s (Obs.Histogram.merge a (Obs.Histogram.merge b c))))

(* a weighted sample is n plain ones in every readout (to_string holds
   count, underflow, max, p50/p90/p99 and the buckets; mean is derived
   from the buckets but checked too), and a weight of 0 records nothing,
   in the histogram and in the event log *)
let prop_hist_add_n_is_repeated_add =
  QCheck.Test.make ~name:"hist add_n == n adds" ~count:200
    QCheck.(triple hist_arbitrary (float_range (-5.0) 1000.0) (int_range 0 40))
    (fun (xs, v, n) ->
      let h = List.fold_left Obs.Histogram.add Obs.Histogram.empty xs in
      let weighted = Obs.Histogram.add_n h v n in
      let repeated = List.fold_left Obs.Histogram.add h (List.init n (fun _ -> v)) in
      let s = Obs.Histogram.to_string in
      String.equal (s weighted) (s repeated)
      && Obs.Histogram.mean weighted = Obs.Histogram.mean repeated
      && Obs.Histogram.percentile weighted 0.25
         = Obs.Histogram.percentile repeated 0.25
      && String.equal (s (Obs.Histogram.add_n h v 0)) (s h))

let test_hist_weighted_events () =
  Obs.reset ();
  Obs.hist ~n:0 "h.w" 3.0;
  Alcotest.check Alcotest.bool "~n:0 records no event" true (Obs.events () = []);
  Obs.hist ~n:5 "h.w" 3.0;
  Obs.hist "h.w" 7.0;
  Obs.hist ~n:2 "h.w" 0.0;
  let plain =
    List.fold_left Obs.Histogram.add Obs.Histogram.empty
      [3.0; 3.0; 3.0; 3.0; 3.0; 7.0; 0.0; 0.0]
  in
  Alcotest.check Alcotest.string "weighted = plain"
    (Obs.Histogram.to_string plain)
    (Obs.Histogram.to_string (List.assoc "h.w" (Obs.histograms ())));
  Alcotest.check Alcotest.bool "negative weight refused" true
    (match Obs.hist ~n:(-1) "h.w" 1.0 with
     | () -> false
     | exception Invalid_argument _ -> true);
  Obs.reset ()

let test_hist_cross_domain_merge () =
  Obs.reset ();
  let items = List.init 40 (fun i -> float_of_int (i + 1)) in
  List.iter (fun v -> Obs.hist "h.serial" v) items;
  ignore
    (Jobs.parallel_mapi_array
       (fun _ v -> Obs.hist "h.parallel" v)
       (Array.of_list items));
  let find name =
    match List.assoc_opt name (Obs.histograms ()) with
    | Some h -> h
    | None -> Alcotest.failf "histogram %s missing" name
  in
  (* scattering samples across domain buffers must merge to the same
     bytes as the single-buffer serial run *)
  Alcotest.(check string) "order-independent merge"
    (Obs.Histogram.to_string (find "h.serial"))
    (Obs.Histogram.to_string (find "h.parallel"))

(* --- span tree -------------------------------------------------------- *)

let test_span_tree () =
  Obs.reset ();
  Obs.span "outer" (fun () ->
      Obs.span "child_a" (fun () ->
          Obs.span "grand" (fun () -> ()));
      Obs.span "child_b" (fun () -> ()));
  Obs.span "outer" (fun () -> Obs.span "child_a" (fun () -> ()));
  let tree = Obs.span_tree () in
  Alcotest.(check int) "one root" 1 (List.length tree);
  let outer = List.hd tree in
  Alcotest.(check string) "root name" "outer" outer.Obs.node_name;
  Alcotest.(check int) "root calls merged" 2 outer.Obs.n_calls;
  Alcotest.(check (list string)) "children sorted by name"
    ["child_a"; "child_b"]
    (List.map (fun n -> n.Obs.node_name) outer.Obs.n_children);
  let child_a = List.hd outer.Obs.n_children in
  Alcotest.(check int) "child_a calls merged" 2 child_a.Obs.n_calls;
  Alcotest.(check string) "path is /-joined" "outer/child_a"
    child_a.Obs.path;
  (* self = total - child time, never negative *)
  Alcotest.(check bool) "root self <= total" true
    (0.0 <= outer.Obs.n_self_s && outer.Obs.n_self_s <= outer.Obs.n_total_s);
  let child_total =
    List.fold_left
      (fun acc n -> acc +. n.Obs.n_total_s)
      0.0 outer.Obs.n_children
  in
  Alcotest.(check bool) "self + children ~ total" true
    (Float.abs (outer.Obs.n_self_s +. child_total -. outer.Obs.n_total_s)
     < 1e-6)

(* one walk pairs Begin/End for both readouts: per span name, the E
   events' dur_us and self_us sum to the tree's total and self seconds
   (each E rounds to 0.1 us) *)
let test_chrome_matches_tree () =
  Obs.reset ();
  let work () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  for _ = 1 to 3 do
    Obs.span "outer" (fun () ->
        Obs.span "inner" work;
        work ())
  done;
  let events =
    match
      Report.Json.member "traceEvents" (parse_json (Obs.chrome_trace ()))
    with
    | Some (Report.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let sum name key =
    List.fold_left
      (fun acc e ->
        match
          Report.Json.member "ph" e, Report.Json.member "name" e,
          Report.Json.member "args" e
        with
        | Some (Report.Json.Str "E"), Some (Report.Json.Str n), Some args
          when String.equal n name ->
          (match Report.Json.member key args with
           | Some (Report.Json.Num v) -> acc +. v
           | _ -> Alcotest.failf "E %s without %s" n key)
        | _ -> acc)
      0.0 events
  in
  let all = flatten (Obs.span_tree ()) in
  Alcotest.(check (list string)) "tree nodes" ["outer"; "inner"]
    (List.map (fun n -> n.Obs.node_name) all);
  List.iter
    (fun n ->
      let close what tree_s trace_us =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: tree %.1f us, trace %.1f us" n.Obs.node_name
             what (tree_s *. 1e6) trace_us)
          true
          (Float.abs ((tree_s *. 1e6) -. trace_us) <= 0.05 *. 3.0 +. 1e-6)
      in
      close "total" n.Obs.n_total_s (sum n.Obs.node_name "dur_us");
      close "self" n.Obs.n_self_s (sum n.Obs.node_name "self_us"))
    all

let test_summary_table_hists () =
  Obs.reset ();
  Obs.hist ~n:3 "sum.hist" 4.0;
  let text = Report.Table.render (Obs.summary_table ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in summary") true
        (Astring.String.is_infix ~affix:needle text))
    ["sum.hist"; "p50=4 p99=4 max=4"]

(* --- flow-level guarantee -------------------------------------------- *)

let quickstart_design () =
  let ic = open_in "../examples/quickstart.bench" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let library = Cell_lib.Default_library.library () in
  Netlist_io.Bench_format.parse ~name:"quickstart" ~library src

let test_flow_stage_spans () =
  Obs.reset ();
  let d = quickstart_design () in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let result = Phase3.Flow.run ~config d in
  (* with the default config every pipeline stage is enabled: each must
     emit exactly one flow.<stage> span and one stage_times entry *)
  List.iter
    (fun stage ->
      Alcotest.(check int) ("one span for " ^ stage) 1
        (calls ("flow." ^ stage)))
    Phase3.Flow.stage_names;
  Alcotest.(check (list string)) "stage_times order"
    Phase3.Flow.stage_names
    (List.map fst result.Phase3.Flow.stage_times);
  List.iter
    (fun (stage, t) ->
      Alcotest.(check bool) (stage ^ " time sane") true (t >= 0.0 && t < 60.0))
    result.Phase3.Flow.stage_times;
  Alcotest.(check bool) "solver counters flowed" true
    (Obs.counter_of "assign.registers" > 0);
  Alcotest.(check bool) "kernel counters flowed" true
    (Obs.counter_of "sim.kernel.lane_cycles" > 0);
  ignore (validate_chrome_trace (Obs.chrome_trace ()))

let test_flow_disabled_stages () =
  Obs.reset ();
  let d = quickstart_design () in
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.retime = false;
      verify_equivalence = false }
  in
  let result = Phase3.Flow.run ~config d in
  Alcotest.(check int) "no retime span" 0 (calls "flow.retime");
  Alcotest.(check int) "no equivalence span" 0 (calls "flow.equivalence");
  Alcotest.(check int) "smo span still present" 1 (calls "flow.smo");
  Alcotest.(check bool) "stage_times skips disabled stages" true
    (not (List.mem_assoc "retime" result.Phase3.Flow.stage_times))

(* all of the flow's work runs under a stage span: the roots of the span
   tree are exactly the flow.<stage> spans of the stages the run
   executed, with the default config and with [optimize] on *)
let test_flow_roots_are_stages () =
  let d = quickstart_design () in
  List.iter
    (fun optimize ->
      Obs.reset ();
      let config =
        { (Phase3.Flow.default_config ~period:1.0) with
          Phase3.Flow.optimize }
      in
      let result = Phase3.Flow.run ~config d in
      let executed =
        List.map (fun (s, _) -> "flow." ^ s) result.Phase3.Flow.stage_times
      in
      Alcotest.(check bool)
        (Printf.sprintf "optimize=%b ran optimize" optimize)
        optimize (List.mem "flow.optimize" executed);
      Alcotest.(check (list string))
        (Printf.sprintf "optimize=%b roots" optimize)
        (List.sort String.compare executed)
        (List.map (fun n -> n.Obs.node_name) (Obs.span_tree ())))
    [false; true]

let suite =
  [ Alcotest.test_case "span nesting produces ordered B/E pairs" `Quick
      test_span_nesting;
    Alcotest.test_case "span records End on exception" `Quick
      test_span_exception;
    Alcotest.test_case "counter merge is deterministic across domains" `Quick
      test_counter_merge_deterministic;
    Alcotest.test_case "gauge merge takes the maximum" `Quick
      test_gauge_max_merge;
    Alcotest.test_case "chrome trace round-trips a validator" `Quick
      test_chrome_roundtrip;
    Alcotest.test_case "chrome trace gauge values read back exactly" `Quick
      test_chrome_gauge_exact;
    Alcotest.test_case "summary table renders every metric kind" `Quick
      test_summary_table;
    Alcotest.test_case "histogram bucket boundaries are exact" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "histogram percentiles on known inputs" `Quick
      test_hist_percentiles;
    QCheck_alcotest.to_alcotest prop_hist_merge_is_sequential_add;
    QCheck_alcotest.to_alcotest prop_hist_merge_commutes;
    QCheck_alcotest.to_alcotest prop_hist_add_n_is_repeated_add;
    Alcotest.test_case "weighted hist samples" `Quick test_hist_weighted_events;
    Alcotest.test_case "histogram merge is order-independent across domains"
      `Quick test_hist_cross_domain_merge;
    Alcotest.test_case "span tree reconstructs nesting with self time" `Quick
      test_span_tree;
    Alcotest.test_case "chrome trace durations equal the span tree's" `Quick
      test_chrome_matches_tree;
    Alcotest.test_case "summary table renders histograms" `Quick
      test_summary_table_hists;
    Alcotest.test_case "every enabled flow stage emits exactly one span" `Quick
      test_flow_stage_spans;
    Alcotest.test_case "disabled flow stages emit no span" `Quick
      test_flow_disabled_stages;
    Alcotest.test_case "every flow root span is an executed stage" `Quick
      test_flow_roots_are_stages ]
