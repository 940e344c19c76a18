(* Tests for the flow artifacts: VCD dumps, timing reports, SDC
   constraints and multi-corner analysis. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

let contains affix s = Astring.String.is_infix ~affix s

let small_design () =
  Netlist_io.Bench_format.parse ~name:"art" ~library:lib {|
INPUT(a)
INPUT(b)
OUTPUT(y)
s0 = DFF(n1)
s1 = DFF(s0)
n1 = XOR(a, b)
y = AND(s1, s0)
|}

(* --- VCD --- *)

let test_vcd_structure () =
  let d = small_design () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clock") in
  let stim = Sim.Stimulus.random ~seed:4 ~cycles:16 ~toggle_probability:0.5 ["a"; "b"] in
  let vcd = Sim.Vcd.run_and_dump engine stim in
  check Alcotest.bool "has timescale" true (contains "$timescale" vcd);
  check Alcotest.bool "declares y" true (contains " y $end" vcd);
  check Alcotest.bool "declares register" true (contains "s0_reg" vcd);
  check Alcotest.bool "has timestamps" true (contains "#0" vcd);
  check Alcotest.bool "enddefinitions" true (contains "$enddefinitions" vcd)

let test_vcd_change_compression () =
  (* constant inputs: after the first sample, no further value changes for
     the input wires *)
  let d = small_design () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clock") in
  let t = Sim.Vcd.create engine ~nets:[] in
  for _ = 1 to 8 do
    ignore (Sim.Engine.run_cycle engine [("a", Sim.Logic.L1); ("b", Sim.Logic.L0)]);
    Sim.Vcd.sample t
  done;
  let vcd = Sim.Vcd.render t in
  (* only clock wires recorded; they are sampled at the same end-of-cycle
     level every cycle, so exactly one timestamped section appears *)
  let sections =
    List.length
      (List.filter (fun line -> String.length line > 0 && line.[0] = '#')
         (String.split_on_char '\n' vcd))
  in
  check Alcotest.bool "no redundant change records" true (sections <= 2)

let test_vcd_ids_unique () =
  (* the short-id generator must not collide for a few hundred signals *)
  let d = Circuits.Generator.synthesize
      { Circuits.Generator.name = "big"; seed = 3; inputs = 10; outputs = 8;
        layers = [|40; 40|]; fanin = 3; cone_depth = 3; self_loop_fraction = 0.2;
        cross_feedback = 0.2; reuse = 0.2; gated_fraction = 0.3; bank_size = 8;
        po_cones = 6; frequency_mhz = 500.0 }
  in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:2.0 ~port:"clk") in
  let t = Sim.Vcd.create_default engine in
  Sim.Vcd.sample t;
  let vcd = Sim.Vcd.render t in
  let ids =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | ["$var"; "wire"; "1"; id; _; "$end"] -> Some id
        | _ -> None)
      (String.split_on_char '\n' vcd)
  in
  check Alcotest.int "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* --- Timing report --- *)

let test_timing_report () =
  let d = small_design () in
  let paths = Sta.Timing_report.worst_paths ~count:3 d in
  check Alcotest.bool "some paths" true (paths <> []);
  let worst = List.hd paths in
  (* worst path is the XOR cone into s0 *)
  check (Alcotest.float 1e-6) "worst delay is the xor cone"
    (let xor = Option.get (Netlist.Design.find_inst d "n1_g2") in
     (Sta.Graph.create d).Sta.Graph.delay_max.(xor))
    worst.Sta.Timing_report.total_delay;
  (* arrivals increase monotonically along every path *)
  List.iter
    (fun (p : Sta.Timing_report.path) ->
      let rec mono last = function
        | [] -> ()
        | (s : Sta.Timing_report.step) :: rest ->
          if s.Sta.Timing_report.arrival < last -. 1e-9 then
            Alcotest.fail "arrivals not monotone";
          mono s.Sta.Timing_report.arrival rest
      in
      mono 0.0 p.Sta.Timing_report.steps)
    paths

let test_timing_report_sorted () =
  let d = Circuits.Generator.synthesize
      { Circuits.Generator.name = "tr"; seed = 8; inputs = 6; outputs = 4;
        layers = [|8; 8|]; fanin = 4; cone_depth = 5; self_loop_fraction = 0.2;
        cross_feedback = 0.2; reuse = 0.2; gated_fraction = 0.0; bank_size = 4;
        po_cones = 4; frequency_mhz = 1000.0 }
  in
  let paths = Sta.Timing_report.worst_paths ~count:10 d in
  let delays = List.map (fun p -> p.Sta.Timing_report.total_delay) paths in
  check Alcotest.bool "descending" true
    (List.sort (fun a b -> compare b a) delays = delays)

(* --- SDC --- *)

let test_sdc_three_phase () =
  let d = small_design () in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.verify_equivalence = false } in
  let r = Phase3.Flow.run ~config d in
  let sdc =
    Netlist_io.Sdc.write r.Phase3.Flow.final ~clocks:(Phase3.Flow.clocks_of config)
  in
  check Alcotest.bool "three create_clock" true
    (List.length
       (List.filter (contains "create_clock")
          (String.split_on_char '\n' sdc)) = 3);
  check Alcotest.bool "physically exclusive" true
    (contains "physically_exclusive" sdc);
  check Alcotest.bool "input delays" true (contains "set_input_delay" sdc);
  check Alcotest.bool "p2 waveform offset" true (contains "0.3733" sdc)

let test_sdc_single_clock () =
  let d = small_design () in
  let sdc = Netlist_io.Sdc.write d ~clocks:(Sim.Clock_spec.single ~period:2.0 ~port:"clock") in
  check Alcotest.bool "one clock" true
    (List.length
       (List.filter (contains "create_clock")
          (String.split_on_char '\n' sdc)) = 1);
  check Alcotest.bool "no exclusive groups" false (contains "physically_exclusive" sdc)

(* --- Corners --- *)

let test_corners () =
  let d = small_design () in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clock" in
  let reports = Sta.Corners.check_all d ~clocks in
  check Alcotest.int "three corners" 3 (List.length reports);
  (* slow corner has less setup slack than fast corner *)
  let slack name =
    let _, r =
      List.find (fun ((c : Sta.Corners.corner), _) ->
          String.equal c.Sta.Corners.corner_name name) reports
    in
    r.Sta.Smo.worst_setup_slack
  in
  check Alcotest.bool "slow tighter than fast" true (slack "slow" < slack "fast")

let test_corner_derate_effect () =
  let d = small_design () in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clock" in
  let base = Sta.Smo.check d ~clocks in
  let derated = Sta.Smo.check ~derate:(1.0, 2.0) d ~clocks in
  check Alcotest.bool "late derate reduces setup slack" true
    (derated.Sta.Smo.worst_setup_slack < base.Sta.Smo.worst_setup_slack)

let suite =
  [ Alcotest.test_case "vcd structure" `Quick test_vcd_structure;
    Alcotest.test_case "vcd change compression" `Quick test_vcd_change_compression;
    Alcotest.test_case "vcd ids unique" `Quick test_vcd_ids_unique;
    Alcotest.test_case "timing report paths" `Quick test_timing_report;
    Alcotest.test_case "timing report sorted" `Quick test_timing_report_sorted;
    Alcotest.test_case "sdc three-phase" `Quick test_sdc_three_phase;
    Alcotest.test_case "sdc single clock" `Quick test_sdc_single_clock;
    Alcotest.test_case "corner sweep" `Quick test_corners;
    Alcotest.test_case "derate effect" `Quick test_corner_derate_effect ]

(* --- Activity / SAIF --- *)

let test_activity_capture () =
  let d = small_design () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clock") in
  let stim = Sim.Stimulus.random ~seed:6 ~cycles:50 ~toggle_probability:0.5 ["a"; "b"] in
  ignore (Sim.Engine.run_stream engine stim);
  let act = Sim.Activity.capture engine in
  check Alcotest.int "cycles recorded" 50 act.Sim.Activity.cycles;
  (* the clock is the busiest net: 2 toggles per cycle *)
  (match act.Sim.Activity.entries with
   | top :: _ ->
     check Alcotest.string "clock on top" "clock" top.Sim.Activity.net_name;
     check Alcotest.int "2 toggles/cycle" 100 top.Sim.Activity.toggles
   | [] -> Alcotest.fail "no entries");
  check Alcotest.bool "mean rate positive" true (Sim.Activity.mean_rate act > 0.0);
  let quiet = Sim.Activity.quiet_nets act ~threshold:0.01 in
  check Alcotest.bool "quiet nets below threshold" true
    (List.for_all (fun e -> e.Sim.Activity.rate < 0.01) quiet);
  let saif = Sim.Activity.render act in
  check Alcotest.bool "saif header" true (contains "SAIFILE" saif);
  check Alcotest.bool "toggle counts present" true (contains "(TC " saif)

let suite =
  suite @ [ Alcotest.test_case "activity capture and saif" `Quick test_activity_capture ]

(* --- optimize interplay with artifacts --- *)

let test_optimized_flow_artifacts () =
  (* the optimized flow output still yields valid Verilog and SDC *)
  let d = small_design () in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.optimize = true } in
  let r = Phase3.Flow.run ~config d in
  let final = r.Phase3.Flow.final in
  let text = Netlist_io.Verilog.write final in
  let d2 = Netlist_io.Verilog.parse ~library:lib text in
  (match Netlist.Check.validate d2 with
   | Ok () -> ()
   | Error es -> Alcotest.failf "reparsed invalid: %s" (String.concat ";" es));
  let sdc = Netlist_io.Sdc.write final ~clocks:(Phase3.Flow.clocks_of config) in
  check Alcotest.bool "sdc still names three clocks" true
    (contains "create_clock -name p3" sdc)

let suite =
  suite
  @ [ Alcotest.test_case "optimized flow artifacts" `Quick
        test_optimized_flow_artifacts ]
