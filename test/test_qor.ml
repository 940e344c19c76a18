(* QoR run records, diffing and the regression gate (lib/qor). *)

let prov ?(kind = "test") ?(circuit = "unit") () =
  { Qor.Record.circuit;
    kind;
    git_rev = None;
    jobs = 1;
    hostname = "testhost";
    timestamp = "2026-01-01T00:00:00Z" }

let mk ?(metrics = []) ?(counters = []) ?(wall = []) ?(gauges = []) () =
  Qor.Record.make ~metrics ~counters ~wall ~gauges (prov ())

let cls_of diff name =
  match List.find_opt (fun e -> e.Qor.Diff.name = name) diff.Qor.Diff.entries with
  | Some e -> Qor.Diff.cls_name e.Qor.Diff.cls
  | None -> Alcotest.failf "no diff entry for %s" name

let check_cls diff name expected =
  Alcotest.(check string) name expected (cls_of diff name)

(* --- diff: exact sections -------------------------------------------- *)

let hist_of l = List.fold_left Obs.Histogram.add Obs.Histogram.empty l

let test_exact_gate () =
  let baseline = mk ~metrics:[("latch.count", 8.0); ("power.total_mw", 2.0)] () in
  (* a lower count is an improvement, but the gate is a ratchet: any
     deterministic change fails until the baseline is refreshed *)
  let current = mk ~metrics:[("latch.count", 7.0); ("power.total_mw", 2.0)] () in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "latch.count" "improved";
  check_cls d "power.total_mw" "unchanged";
  Alcotest.(check (list string)) "gate failures" ["latch.count"]
    d.Qor.Diff.gate_failures;
  Alcotest.(check bool) "gate fails on improvement" false (Qor.Diff.ok d)

let test_exact_direction () =
  let baseline =
    mk ~metrics:[("timing.worst_setup_slack_ns", 0.1); ("area.cells_um2", 25.0)]
      ()
  in
  let current =
    mk ~metrics:[("timing.worst_setup_slack_ns", 0.2); ("area.cells_um2", 26.0)]
      ()
  in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "timing.worst_setup_slack_ns" "improved";
  check_cls d "area.cells_um2" "REGRESSED"

let test_missing_metric () =
  let baseline = mk ~metrics:[("ff.count", 5.0); ("latch.count", 8.0)] () in
  let current = mk ~metrics:[("cg.coverage", 1.0); ("ff.count", 5.0)] () in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "latch.count" "MISSING (current)";
  check_cls d "cg.coverage" "new";
  (* a vanished metric fails the gate; a new one does not *)
  Alcotest.(check (list string)) "gate failures" ["latch.count"]
    d.Qor.Diff.gate_failures

(* Obs records a counter only once an increment is nonzero and a
   histogram from its first sample, so a counter or histogram that one
   record lacks reads as 0: absent -> N fails the gate either way
   round, while a metric new to the baseline still only reports *)
let test_absent_reads_zero () =
  let baseline =
    mk ~metrics:[("ff.count", 5.0)] ~counters:[("sim.kernel.evals", 100)] ()
  in
  let current =
    Qor.Record.make
      ~metrics:[("cg.coverage", 1.0); ("ff.count", 5.0)]
      ~counters:[("sta.paths.arcs", 512)]
      ~hists:[("ilp.component_nodes", hist_of [3.0; 5.0])]
      (prov ())
  in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "sta.paths.arcs" "REGRESSED";
  check_cls d "sim.kernel.evals" "improved";
  check_cls d "ilp.component_nodes.count" "REGRESSED";
  check_cls d "cg.coverage" "new";
  (match
     List.find_opt
       (fun e -> e.Qor.Diff.name = "sta.paths.arcs")
       d.Qor.Diff.entries
   with
   | Some e ->
     Alcotest.(check (option (float 0.0))) "absent baseline reads 0"
       (Some 0.0) e.Qor.Diff.baseline
   | None -> Alcotest.fail "no entry for sta.paths.arcs");
  Alcotest.(check (list string)) "gate failures"
    [ "sim.kernel.evals"; "sta.paths.arcs"; "ilp.component_nodes.count";
      "ilp.component_nodes.p50"; "ilp.component_nodes.p90";
      "ilp.component_nodes.p99"; "ilp.component_nodes.max" ]
    d.Qor.Diff.gate_failures;
  (* the same counters and histograms on both sides gate clean: only
     dropped metrics fail, and new metrics alone pass *)
  let bare = { current with Qor.Record.metrics = [] } in
  Alcotest.(check (list string)) "dropped metrics gate"
    ["cg.coverage"; "ff.count"]
    (Qor.Diff.run ~baseline:current bare).Qor.Diff.gate_failures;
  Alcotest.(check bool) "new metrics pass" true
    (Qor.Diff.ok (Qor.Diff.run ~baseline:bare current))

let test_nan_inf () =
  let baseline =
    mk
      ~metrics:
        [ ("a.nan", Float.nan); ("b.nan_vs_finite", Float.nan);
          ("c.inf", Float.infinity); ("d.finite_vs_nan", 1.0) ]
      ()
  in
  let current =
    mk
      ~metrics:
        [ ("a.nan", Float.nan); ("b.nan_vs_finite", 0.5);
          ("c.inf", Float.infinity); ("d.finite_vs_nan", Float.nan) ]
      ()
  in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "a.nan" "unchanged";
  check_cls d "b.nan_vs_finite" "REGRESSED";
  check_cls d "c.inf" "unchanged";
  check_cls d "d.finite_vs_nan" "REGRESSED"

(* --- diff: noisy sections -------------------------------------------- *)

let test_zero_baseline_abs_floor () =
  (* relative band of a 0.0 baseline is 0; only the absolute floor
     keeps tiny absolute jitter from flagging *)
  let baseline = mk ~wall:[("stage.fast", 0.0); ("stage.slow", 0.0)] () in
  let current = mk ~wall:[("stage.fast", 0.005); ("stage.slow", 0.02)] () in
  let d = Qor.Diff.run ~baseline current in
  check_cls d "stage.fast" "unchanged";
  check_cls d "stage.slow" "REGRESSED";
  Alcotest.(check (list string)) "wall regressions" ["stage.slow"]
    d.Qor.Diff.wall_regressions;
  Alcotest.(check (list string)) "gate untouched" [] d.Qor.Diff.gate_failures;
  Alcotest.(check bool) "ok by default" true (Qor.Diff.ok d);
  Alcotest.(check bool) "fails with fail_on_wall" false
    (Qor.Diff.ok ~fail_on_wall:true d)

let test_band_boundary_inclusive () =
  (* |delta| = noise_band * |baseline| exactly: inside the band *)
  let baseline = mk ~wall:[("flow.total_s", 2.0)] ~gauges:[("gc.heap", 2.0)] () in
  let at = mk ~wall:[("flow.total_s", 3.0)] ~gauges:[("gc.heap", 1.0)] () in
  let beyond = mk ~wall:[("flow.total_s", 3.01)] ~gauges:[("gc.heap", 0.98)] () in
  let d_at = Qor.Diff.run ~noise_band:0.5 ~baseline at in
  check_cls d_at "flow.total_s" "unchanged";
  check_cls d_at "gc.heap" "unchanged";
  let d_beyond = Qor.Diff.run ~noise_band:0.5 ~abs_floor:0.0 ~baseline beyond in
  check_cls d_beyond "flow.total_s" "REGRESSED";
  check_cls d_beyond "gc.heap" "improved"

(* --- diff: histogram readouts and attribution ------------------------ *)

let test_hist_gate () =
  let baseline =
    Qor.Record.make
      ~hists:[("ilp.component_nodes", hist_of [1.0; 2.0; 4.0])]
      (prov ())
  in
  let same =
    Qor.Record.make
      ~hists:[("ilp.component_nodes", hist_of [1.0; 2.0; 4.0])]
      (prov ())
  in
  let d = Qor.Diff.run ~baseline same in
  Alcotest.(check (list string)) "identical hists gate clean" []
    d.Qor.Diff.gate_failures;
  (* one extra sample moves count and p99: both flagged, exactly *)
  let moved =
    Qor.Record.make
      ~hists:[("ilp.component_nodes", hist_of [1.0; 2.0; 4.0; 64.0])]
      (prov ())
  in
  let d = Qor.Diff.run ~baseline moved in
  Alcotest.(check bool) "hist change fails the gate" false (Qor.Diff.ok d);
  Alcotest.(check bool) "count flagged" true
    (List.mem "ilp.component_nodes.count" d.Qor.Diff.gate_failures);
  Alcotest.(check bool) "max flagged" true
    (List.mem "ilp.component_nodes.max" d.Qor.Diff.gate_failures);
  Alcotest.(check bool) "p50 not flagged" true
    (not (List.mem "ilp.component_nodes.p50" d.Qor.Diff.gate_failures))

let test_attribution () =
  (* power regressed, and the power stage's own telemetry moved with
     it: the diff must name the co-located counter as a suspect *)
  let baseline =
    Qor.Record.make
      ~metrics:[("power.total_mw", 2.0); ("assign.objective", 3.0)]
      ~counters:
        [("sim.kernel.events", 1000); ("ilp.nodes", 40); ("lint.checks", 7)]
      (prov ())
  in
  let current =
    Qor.Record.make
      ~metrics:[("power.total_mw", 2.5); ("assign.objective", 4.0)]
      ~counters:
        [("sim.kernel.events", 1800); ("ilp.nodes", 90); ("lint.checks", 7)]
      (prov ())
  in
  let d = Qor.Diff.run ~baseline current in
  let find metric =
    match
      List.find_opt
        (fun a -> a.Qor.Diff.at_metric = metric)
        d.Qor.Diff.attributions
    with
    | Some a -> a
    | None -> Alcotest.failf "no attribution for %s" metric
  in
  let power = find "power.total_mw" in
  Alcotest.(check string) "power owned by power stage" "power"
    power.Qor.Diff.at_stage;
  Alcotest.(check (list string)) "kernel counter is the suspect"
    ["sim.kernel.events"]
    (List.map (fun s -> s.Qor.Diff.su_name) power.Qor.Diff.at_suspects);
  let assign = find "assign.objective" in
  Alcotest.(check string) "objective owned by assign stage" "assign"
    assign.Qor.Diff.at_stage;
  Alcotest.(check (list string)) "solver counter is the suspect"
    ["ilp.nodes"]
    (List.map (fun s -> s.Qor.Diff.su_name) assign.Qor.Diff.at_suspects);
  (* the unchanged lint counter accuses nobody *)
  Alcotest.(check bool) "attribution lines name the stage" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"stage power" l)
       (Qor.Diff.attribution_lines d))

(* --- trend ------------------------------------------------------------ *)

let test_trend_anomaly_rule () =
  (* too little history: never flagged *)
  Alcotest.(check bool) "3 points never flag" false
    (Qor.Trend.anomalous [1.0; 1.0; 9.0]);
  (* constant history, constant latest: clean *)
  Alcotest.(check bool) "flat is clean" false
    (Qor.Trend.anomalous [5.0; 5.0; 5.0; 5.0; 5.0]);
  (* constant history (MAD = 0), any deviation flags *)
  Alcotest.(check bool) "MAD=0 deviation flags" true
    (Qor.Trend.anomalous [5.0; 5.0; 5.0; 5.0; 5.1]);
  (* jittery history absorbs a small move *)
  Alcotest.(check bool) "inside 3.5 sigma" false
    (Qor.Trend.anomalous [10.0; 11.0; 9.0; 10.5; 10.2]);
  (* far outlier flags *)
  Alcotest.(check bool) "far outlier flags" true
    (Qor.Trend.anomalous [10.0; 11.0; 9.0; 10.5; 30.0]);
  Alcotest.(check bool) "NaN latest flags" true
    (Qor.Trend.anomalous [1.0; 1.0; 1.0; Float.nan])

let test_trend_series () =
  let at ts metrics wall =
    { (Qor.Record.make ~metrics ~wall (prov ())) with
      Qor.Record.prov = { (prov ()) with Qor.Record.timestamp = ts } }
  in
  let records =
    [ at "t1" [("ff.count", 5.0)] [("stage.assign", 0.1)];
      at "t2" [("ff.count", 5.0)] [("stage.assign", 0.2)];
      at "t3" [("ff.count", 5.0)] [("stage.assign", 0.1)];
      at "t4" [("ff.count", 9.0)] [("stage.assign", 0.15)] ]
  in
  let series = Qor.Trend.series_of_records records in
  let find name =
    match
      List.find_opt (fun s -> s.Qor.Trend.sr_name = name) series
    with
    | Some s -> s
    | None -> Alcotest.failf "no series for %s" name
  in
  let ff = find "ff.count" in
  Alcotest.(check int) "four points" 4 (List.length ff.Qor.Trend.sr_points);
  Alcotest.(check (list string)) "points keep record order"
    ["t1"; "t2"; "t3"; "t4"]
    (List.map fst ff.Qor.Trend.sr_points);
  Alcotest.(check bool) "deterministic series" true
    ff.Qor.Trend.sr_deterministic;
  Alcotest.(check bool) "MAD=0 jump is anomalous" true
    ff.Qor.Trend.sr_anomaly;
  let wall = find "stage.assign" in
  Alcotest.(check bool) "wall series is noisy" false
    wall.Qor.Trend.sr_deterministic;
  (* only deterministic anomalies are CI-worthy *)
  Alcotest.(check (list string)) "anomalies pick the metric"
    ["ff.count"]
    (List.map
       (fun s -> s.Qor.Trend.sr_name)
       (Qor.Trend.anomalies series));
  Alcotest.(check bool) "sparkline renders" true
    (String.length (Qor.Trend.sparkline [1.0; 2.0; 3.0]) > 0)

(* --- record render / parse ------------------------------------------- *)

let test_render_roundtrip () =
  let r =
    Qor.Record.make
      ~config:[("solver", Report.Json.Str "auto"); ("retime", Report.Json.Bool true)]
      ~metrics:
        [ ("z.last", 1.0); ("a.first", 0.1); ("n.nan", Float.nan);
          ("i.inf", Float.infinity); ("m.neg_inf", Float.neg_infinity);
          ("t.tiny", 1e-300); ("x.pi", 4.0 *. atan 1.0) ]
      ~counters:[("b.count", 2); ("a.count", 40)]
      ~hists:
        [ ("h.sizes", hist_of [1.0; 2.0; 2.1; 700.0]);
          ("h.with_underflow", hist_of [0.0; -1.0; 3.0]) ]
      ~wall:[("stage.x", 0.25)]
      ~gauges:[("gc.heap_words", 12345.0)]
      ~tree:
        [ { Qor.Record.t_name = "flow.convert";
            t_calls = 1;
            t_total_s = 0.1;
            t_self_s = 0.04;
            t_children =
              [ { Qor.Record.t_name = "qor.power";
                  t_calls = 1;
                  t_total_s = 0.06;
                  t_self_s = 0.06;
                  t_children = [] } ] } ]
      (prov ())
  in
  let text = Qor.Record.render r in
  let r2 =
    match Qor.Record.parse text with
    | Ok r2 -> r2
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check string) "render/parse round-trips bytes" text
    (Qor.Record.render r2);
  (* maps come back sorted (canonical order) *)
  Alcotest.(check (list string)) "metrics sorted"
    [ "a.first"; "i.inf"; "m.neg_inf"; "n.nan"; "t.tiny"; "x.pi"; "z.last" ]
    (List.map fst r2.Qor.Record.metrics);
  (match Qor.Record.metric r2 "n.nan" with
   | Some v -> Alcotest.(check bool) "nan survives" true (Float.is_nan v)
   | None -> Alcotest.fail "n.nan lost");
  (match Qor.Record.metric r2 "i.inf" with
   | Some v ->
     Alcotest.(check bool) "inf survives" true (v = Float.infinity)
   | None -> Alcotest.fail "i.inf lost");
  (* counters resolve through the unified metric lookup too *)
  Alcotest.(check (option (float 0.0))) "counter lookup" (Some 40.0)
    (Qor.Record.metric r2 "a.count");
  (* histograms and the span tree survive the round-trip structurally *)
  (match List.assoc_opt "h.with_underflow" r2.Qor.Record.hists with
   | Some h ->
     Alcotest.(check int) "hist underflow survives" 2
       (Obs.Histogram.underflow h)
   | None -> Alcotest.fail "h.with_underflow lost");
  (match r2.Qor.Record.tree with
   | [root] ->
     Alcotest.(check string) "tree root survives" "flow.convert"
       root.Qor.Record.t_name;
     Alcotest.(check int) "tree child survives" 1
       (List.length root.Qor.Record.t_children)
   | _ -> Alcotest.fail "tree lost")

(* --- Report.Json: every byte string and every float round-trips --- *)

let prop_json_bytes_roundtrip =
  QCheck.Test.make ~name:"json string round-trip (any bytes)" ~count:1000
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.char)
    (fun s ->
      let back text = Report.Json.parse text = Ok (Report.Json.Str s) in
      back (Report.Json.render (Report.Json.Str s)) && back (Report.Json.quote s))

let prop_json_float_roundtrip =
  let corners =
    [ 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan;
      4.9e-324 (* the smallest subnormal *); 1e15; -1e15 ]
  in
  QCheck.Test.make ~name:"json float round-trip keeps the bits" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h")
       (QCheck.Gen.graft_corners
          (QCheck.Gen.map Int64.float_of_bits QCheck.Gen.ui64) corners ()))
    (fun f ->
      match
        Result.map Report.Json.to_float
          (Report.Json.parse (Report.Json.render (Report.Json.Num f)))
      with
      | Ok (Some g) ->
        if Float.is_nan f then Float.is_nan g
        else Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Ok None | Error _ -> false)

let test_unknown_fields_tolerated () =
  let text = Qor.Record.render (mk ~metrics:[("ff.count", 5.0)] ()) in
  (* graft unknown fields at the top level and inside provenance; a
     same-version reader must ignore them *)
  let body = String.sub text 1 (String.length text - 1) in
  (* an array of objects, like a section an older writer emitted *)
  let with_extras =
    "{\n  \"future_top_level\": {\"x\": 1},\n  \
     \"retired\": [{\"name\": \"flow.convert\", \"calls\": 1}]," ^ body
  in
  (match Qor.Record.parse with_extras with
   | Ok r ->
     Alcotest.(check (option (float 0.0))) "metric kept" (Some 5.0)
       (Qor.Record.metric r "ff.count")
   | Error e -> Alcotest.failf "unknown top-level field rejected: %s" e)

let test_reader_strictness () =
  let good = mk () in
  let json = Qor.Record.to_json good in
  let without key =
    match json with
    | Report.Json.Obj kvs ->
      Report.Json.Obj (List.filter (fun (k, _) -> k <> key) kvs)
    | _ -> assert false
  in
  let replace key v =
    match json with
    | Report.Json.Obj kvs ->
      Report.Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) kvs)
    | _ -> assert false
  in
  (match Qor.Record.of_json (without "circuit") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing circuit accepted");
  (match Qor.Record.of_json (replace "schema_version" (Report.Json.Num 99.0)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "future schema version accepted");
  (match Qor.Record.of_json (replace "metrics" (Report.Json.Str "oops")) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "ill-typed metrics accepted")

(* --- store ----------------------------------------------------------- *)

let test_store () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qor-test-%d" (Unix.getpid ()))
  in
  let r1 = mk ~metrics:[("ff.count", 5.0)] () in
  let r2 = mk ~metrics:[("ff.count", 6.0)] () in
  let p1 = Qor.Store.append ~dir r1 in
  let p2 = Qor.Store.append ~dir r2 in
  (* identical provenance, so the second file gets a collision suffix *)
  Alcotest.(check bool) "distinct run files" true (p1 <> p2);
  (match Qor.Store.load p1 with
   | Ok r -> Alcotest.(check string) "file round-trip"
               (Qor.Record.render r1) (Qor.Record.render r)
   | Error e -> Alcotest.failf "load failed: %s" e);
  let h = Qor.Store.history ~dir in
  Alcotest.(check int) "two history lines" 2 (List.length h);
  (match Qor.Store.latest ~dir ~kind:"test" ~circuit:"unit" () with
   | Some r ->
     Alcotest.(check (option (float 0.0))) "latest is second append"
       (Some 6.0) (Qor.Record.metric r "ff.count")
   | None -> Alcotest.fail "latest found nothing");
  Alcotest.(check bool) "kind filter excludes" true
    (Qor.Store.latest ~dir ~kind:"flow" ~circuit:"unit" () = None)

(* --- end-to-end: flow record against itself and a perturbed baseline - *)

let quickstart_design () =
  let ic = open_in "../examples/quickstart.bench" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let library = Cell_lib.Default_library.library () in
  Netlist_io.Bench_format.parse ~name:"quickstart" ~library src

(* [ff2latch power] measures through [Qor.Collect.record_power] with the
   default activity seed.  On the flow's final design, and on that
   design written to Verilog and read back as [power] reads a [convert
   -o] netlist (clocks from its three clock ports), it equals the run
   record's power metrics float for float. *)
let test_power_equals_record () =
  let b = Option.get (Circuits.Suite.find "s5378") in
  let period = 1.0 in
  let config = Phase3.Flow.default_config ~period in
  let result = Phase3.Flow.run ~config (b.Circuits.Suite.build ()) in
  let record = Qor.Collect.of_flow ~circuit:"s5378" result in
  let same_as_record what design ~clocks =
    let _, hold, m =
      Qor.Collect.record_power design ~clocks
        ~seed:(Phase3.Flow.default_config ~period).Phase3.Flow.activity_seed
    in
    let overall = m.Qor.Collect.detail.Power.Estimate.overall in
    let leak = m.Qor.Collect.detail.Power.Estimate.leakage in
    List.iter
      (fun (name, v) ->
        let r = List.assoc name record.Qor.Record.metrics in
        if Int64.bits_of_float v <> Int64.bits_of_float r then
          Alcotest.failf "%s: %s %h, record %h" what name v r)
      [ ("power.clock_mw", overall.Power.Estimate.clock);
        ("power.seq_mw", overall.Power.Estimate.seq);
        ("power.comb_mw", overall.Power.Estimate.comb);
        ("power.total_mw", Power.Estimate.total overall);
        ("power.leakage_mw", Power.Estimate.total leak);
        ("hold.buffers", float_of_int hold.Sta.Hold_fix.buffers_added) ]
  in
  same_as_record "final design" result.Phase3.Flow.final
    ~clocks:(Phase3.Flow.clocks_of config);
  let reparsed =
    Netlist_io.Verilog.parse ~library:(Cell_lib.Default_library.library ())
      (Netlist_io.Verilog.write result.Phase3.Flow.final)
  in
  match reparsed.Netlist.Design.clock_ports with
  | [p1; p2; p3] ->
    same_as_record "netlist read back" reparsed
      ~clocks:(Sim.Clock_spec.three_phase ~period ~p1 ~p2 ~p3 ())
  | ports ->
    Alcotest.failf "read-back clock ports: %s" (String.concat ", " ports)

let test_flow_record_gate () =
  Obs.reset ();
  let d = quickstart_design () in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let result = Phase3.Flow.run ~config d in
  let record = Qor.Collect.of_flow ~circuit:"quickstart" result in
  (* the acceptance property: a record gates cleanly against itself *)
  let self = Qor.Diff.run ~baseline:record record in
  Alcotest.(check (list string)) "self-diff gate" []
    self.Qor.Diff.gate_failures;
  Alcotest.(check (list string)) "self-diff wall" []
    self.Qor.Diff.wall_regressions;
  (* perturb one deterministic metric plus a co-located stage counter
     in the baseline: the gate must name exactly those entries, and
     the attribution must rank the counter as a suspect for the
     metric's owning stage *)
  let perturbed =
    { record with
      Qor.Record.metrics =
        List.map
          (fun (k, v) ->
            if k = "power.total_mw" then (k, v *. 0.9) else (k, v))
          record.Qor.Record.metrics;
      Qor.Record.counters =
        List.map
          (fun (k, v) ->
            if k = "sim.kernel.lane_cycles" then (k, v / 2) else (k, v))
          record.Qor.Record.counters }
  in
  let diff = Qor.Diff.run ~baseline:perturbed record in
  Alcotest.(check (list string)) "gate names the entries"
    ["power.total_mw"; "sim.kernel.lane_cycles"] diff.Qor.Diff.gate_failures;
  Alcotest.(check bool) "gate fails" false (Qor.Diff.ok diff);
  (match
     List.find_opt
       (fun a -> a.Qor.Diff.at_metric = "power.total_mw")
       diff.Qor.Diff.attributions
   with
   | Some a ->
     Alcotest.(check string) "owning stage" "power" a.Qor.Diff.at_stage;
     Alcotest.(check bool) "kernel counter among suspects" true
       (List.exists
          (fun s -> s.Qor.Diff.su_name = "sim.kernel.lane_cycles")
          a.Qor.Diff.at_suspects)
   | None -> Alcotest.fail "no attribution for power.total_mw");
  let md = Qor.Diff.markdown diff in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in markdown") true
        (Astring.String.is_infix ~affix:needle md))
    ["Gate: FAIL"; "power.total_mw"];
  Alcotest.(check bool) "self markdown passes" true
    (Astring.String.is_infix ~affix:"Gate: PASS" (Qor.Diff.markdown self));
  (* the flow record carries the new telemetry: deterministic solver
     and kernel histograms, and the span call tree *)
  Alcotest.(check bool) "record has kernel wave histogram" true
    (List.mem_assoc "sim.kernel.wave.units" record.Qor.Record.hists);
  Alcotest.(check bool) "record has solver histograms" true
    (List.mem_assoc "ilp.component_vars" record.Qor.Record.hists);
  Alcotest.(check bool) "record has a span tree" true
    (record.Qor.Record.tree <> [])

let test_html_report () =
  Obs.reset ();
  let d = quickstart_design () in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let result = Phase3.Flow.run ~config d in
  let record = Qor.Collect.of_flow ~circuit:"quickstart" result in
  let html = Qor.Report_html.page ~history:[record; record] record in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in page") true
        (Astring.String.is_infix ~affix:needle html))
    [ "<!DOCTYPE html>"; "quickstart"; "Span tree"; "Histograms";
      "sim.kernel.wave.units"; "power.total_mw"; "</html>" ];
  (* self-contained: no external fetches of any kind *)
  List.iter
    (fun banned ->
      Alcotest.(check bool) ("no " ^ banned) false
        (Astring.String.is_infix ~affix:banned html))
    ["src=\"http"; "href=\"http"; "<script"; "@import"; "url("];
  (* diff mode carries the verdict and the suspects *)
  let perturbed =
    { record with
      Qor.Record.metrics =
        List.map
          (fun (k, v) ->
            if k = "power.total_mw" then (k, v *. 0.9) else (k, v))
          record.Qor.Record.metrics;
      Qor.Record.counters =
        List.map
          (fun (k, v) ->
            if k = "sim.kernel.lane_cycles" then (k, v / 2) else (k, v))
          record.Qor.Record.counters }
  in
  let html = Qor.Report_html.page ~baseline:perturbed record in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in diff page") true
        (Astring.String.is_infix ~affix:needle html))
    ["Gate: FAIL"; "Suspects"; "sim.kernel.lane_cycles"]

let suite =
  [ Alcotest.test_case "exact change fails the gate in either direction" `Quick
      test_exact_gate;
    Alcotest.test_case "direction conventions (slack up, area down)" `Quick
      test_exact_direction;
    Alcotest.test_case "missing metric gates, new metric reports" `Quick
      test_missing_metric;
    Alcotest.test_case "absent counter or histogram reads as 0" `Quick
      test_absent_reads_zero;
    Alcotest.test_case "NaN/inf compare structurally" `Quick test_nan_inf;
    Alcotest.test_case "zero baseline uses the absolute floor" `Quick
      test_zero_baseline_abs_floor;
    Alcotest.test_case "noise band boundary is inclusive" `Quick
      test_band_boundary_inclusive;
    Alcotest.test_case "histogram readouts gate exactly" `Quick test_hist_gate;
    Alcotest.test_case "regressions attribute to co-located telemetry" `Quick
      test_attribution;
    Alcotest.test_case "trend anomaly rule (median/MAD)" `Quick
      test_trend_anomaly_rule;
    Alcotest.test_case "trend series split deterministic vs noisy" `Quick
      test_trend_series;
    Alcotest.test_case "render/parse round-trip incl. NaN and inf" `Quick
      test_render_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
    Alcotest.test_case "reader tolerates unknown fields" `Quick
      test_unknown_fields_tolerated;
    Alcotest.test_case "reader rejects missing/ill-typed/future" `Quick
      test_reader_strictness;
    Alcotest.test_case "store appends, loads, lists history" `Quick test_store;
    Alcotest.test_case "flow record gates against itself and perturbation"
      `Quick test_flow_record_gate;
    Alcotest.test_case "html report is self-contained and carries suspects"
      `Quick test_html_report;
    Alcotest.test_case "power command equals the record's power" `Quick
      test_power_equals_record ]
