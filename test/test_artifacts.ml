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

let clock1 = Sim.Clock_spec.single ~period:1.0 ~port:"clock"

(* a 63-lane draw whose lane 0 is the one-seed stream of [seed] *)
let draw ~seed ~cycles ~p inputs =
  Sim.Stimulus.draw
    ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> seed + l))
    ~cycles (Sim.Stimulus.Uniform p) inputs

let vcd_lines vcd = String.split_on_char '\n' vcd

let var_ids vcd =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | ["$var"; "wire"; "1"; id; name; "$end"] -> Some (id, name)
      | _ -> None)
    (vcd_lines vcd)

(* the value-change records after the header, in file order *)
let vcd_changes vcd =
  let rec body = function
    | "$upscope $end" :: "$enddefinitions $end" :: rest -> rest
    | _ :: rest -> body rest
    | [] -> []
  in
  let time = ref 0 in
  List.filter_map
    (fun line ->
      if line = "" then None
      else if line.[0] = '#' then begin
        time := int_of_string (String.sub line 1 (String.length line - 1));
        None
      end
      else
        Some (!time, line.[0], String.sub line 1 (String.length line - 1)))
    (body (vcd_lines vcd))

let test_vcd_structure () =
  let d = small_design () in
  let vcd =
    Sim.Vcd.dump (Sim.Kernel.create d ~clocks:clock1)
      (draw ~seed:4 ~cycles:16 ~p:0.5 ["a"; "b"])
  in
  check Alcotest.bool "has timescale" true (contains "$timescale" vcd);
  check Alcotest.bool "declares y" true (contains " y $end" vcd);
  check Alcotest.bool "declares register" true (contains "s0_reg" vcd);
  check Alcotest.bool "has timestamps" true (contains "#0" vcd);
  check Alcotest.bool "enddefinitions" true (contains "$enddefinitions" vcd);
  check Alcotest.bool "ends at the last cycle" true (contains "\n#160\n" vcd)

let test_vcd_change_compression () =
  (* constant inputs: once the two registers have filled, nothing
     changes, and no record repeats its wire's previous value *)
  let d = small_design () in
  let vcd =
    Sim.Vcd.dump (Sim.Kernel.create d ~clocks:clock1)
      (draw ~seed:4 ~cycles:8 ~p:0.0 ["a"; "b"])
  in
  let changes = vcd_changes vcd in
  check Alcotest.bool "no change after cycle 2" true
    (List.for_all (fun (t, _, _) -> t <= 20) changes);
  let last = Hashtbl.create 8 in
  List.iter
    (fun (_, v, id) ->
      if Hashtbl.find_opt last id = Some v then
        Alcotest.failf "wire %s repeats %c" id v;
      Hashtbl.replace last id v)
    changes;
  let sections =
    List.length
      (List.filter (fun line -> String.length line > 0 && line.[0] = '#')
         (vcd_lines vcd))
  in
  check Alcotest.bool "at most three change sections and the end mark" true
    (sections <= 4)

let test_vcd_ids_unique () =
  (* the short-id generator must not collide past its 94 one-character ids *)
  let d = Circuits.Generator.synthesize
      { Circuits.Generator.name = "big"; seed = 3; inputs = 10; outputs = 8;
        layers = [|40; 40|]; fanin = 3; cone_depth = 3; self_loop_fraction = 0.2;
        cross_feedback = 0.2; reuse = 0.2; gated_fraction = 0.3; bank_size = 8;
        po_cones = 6; frequency_mhz = 500.0 }
  in
  let vcd =
    Sim.Vcd.dump
      (Sim.Kernel.create d ~clocks:(Sim.Clock_spec.single ~period:2.0 ~port:"clk"))
      (draw ~seed:1 ~cycles:1 ~p:0.3 (Sim.Stimulus.inputs_of d))
  in
  let ids = List.map fst (var_ids vcd) in
  check Alcotest.bool "more signals than one-character ids" true
    (List.length ids > 94);
  check Alcotest.int "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* Every value the VCD records equals the engine's value of the same
   net after the same cycle of lane 0's stream: clock ports, the other
   inputs, the outputs and the register outputs, in that order. *)
let vcd_matches_engine d ~clocks ~seed ~cycles =
  let open Netlist.Design in
  let stimulus = draw ~seed ~cycles ~p:0.3 (Sim.Stimulus.inputs_of d) in
  let vcd = Sim.Vcd.dump (Sim.Kernel.create d ~clocks) stimulus in
  let recorded =
    List.map (fun p -> (p, Option.get (find_input d p))) d.clock_ports
    @ List.filter (fun (p, _) -> not (is_clock_port d p)) d.primary_inputs
    @ d.primary_outputs
    @ List.filter_map
        (fun i -> Option.map (fun q -> (inst_name d i, q)) (q_net_of d i))
        (sequential_insts d)
  in
  let vars = var_ids vcd in
  check (Alcotest.list Alcotest.string) "recorded names"
    (List.map (fun (name, _) -> Sim.Vcd.sanitize name) recorded)
    (List.map snd vars);
  let net_of_id = Hashtbl.create 64 in
  List.iter2 (fun (id, _) (_, net) -> Hashtbl.replace net_of_id id net) vars
    recorded;
  let state = Hashtbl.create 64 in
  let changes = ref (vcd_changes vcd) in
  let engine = Sim.Engine.create d ~clocks in
  List.iteri
    (fun c inputs ->
      ignore (Sim.Engine.run_cycle engine inputs);
      let rec apply = function
        | (t, v, id) :: rest when t = c * 10 ->
          Hashtbl.replace state id v;
          apply rest
        | rest -> rest
      in
      changes := apply !changes;
      List.iter
        (fun (id, name) ->
          let expected =
            Sim.Logic.to_char (Sim.Engine.net_value engine (Hashtbl.find net_of_id id))
          in
          match Hashtbl.find_opt state id with
          | Some v when v = expected -> ()
          | got ->
            Alcotest.failf "%s after cycle %d: vcd %s, engine %c" name c
              (match got with Some v -> String.make 1 v | None -> "none")
              expected)
        vars)
    (Sim.Stimulus.lane stimulus 0);
  check Alcotest.int "every record read" 0 (List.length !changes)

let test_vcd_matches_engine () =
  vcd_matches_engine (small_design ()) ~clocks:clock1 ~seed:42 ~cycles:40;
  (* a converted design: three clock ports, latches and clock gates *)
  let b = Option.get (Circuits.Suite.find "s1196") in
  let config = Phase3.Flow.default_config ~period:b.Circuits.Suite.period_ns in
  let r = Phase3.Flow.run ~config (b.Circuits.Suite.build ()) in
  vcd_matches_engine r.Phase3.Flow.final ~clocks:(Phase3.Flow.clocks_of config)
    ~seed:42 ~cycles:64

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
    Alcotest.test_case "vcd values equal the engine's" `Quick
      test_vcd_matches_engine;
    Alcotest.test_case "timing report paths" `Quick test_timing_report;
    Alcotest.test_case "timing report sorted" `Quick test_timing_report_sorted;
    Alcotest.test_case "sdc three-phase" `Quick test_sdc_three_phase;
    Alcotest.test_case "sdc single clock" `Quick test_sdc_single_clock;
    Alcotest.test_case "corner sweep" `Quick test_corners;
    Alcotest.test_case "derate effect" `Quick test_corner_derate_effect ]

(* --- Activity / SAIF --- *)

let test_activity_capture () =
  let d = small_design () in
  let kernel = Sim.Kernel.create d ~clocks:clock1 in
  Sim.Kernel.run kernel (draw ~seed:6 ~cycles:50 ~p:0.5 ["a"; "b"]);
  let toggles = Sim.Kernel.toggles kernel in
  let lane_cycles = Sim.Kernel.lane_cycles kernel in
  check Alcotest.int "lane-cycles recorded" (50 * Sim.Kernel.max_lanes)
    lane_cycles;
  let saif = Sim.Saif.render d ~toggles ~duration:lane_cycles in
  check Alcotest.bool "saif header" true (contains "SAIFILE" saif);
  check Alcotest.bool "duration in lane-cycles" true
    (contains (Printf.sprintf "(DURATION %d)" lane_cycles) saif);
  let entries =
    List.filter_map
      (fun line ->
        Scanf.sscanf_opt line "   (%s@ (TC %d))" (fun name tc -> (name, tc)))
      (String.split_on_char '\n' saif)
  in
  check Alcotest.int "one entry per net" (Netlist.Design.num_nets d)
    (List.length entries);
  (* the clock is the busiest net: 2 toggles per lane-cycle *)
  (match entries with
   | (name, tc) :: _ ->
     check Alcotest.string "clock on top" "clock" name;
     check Alcotest.int "2 toggles per lane-cycle" (2 * lane_cycles) tc
   | [] -> Alcotest.fail "no entries");
  let counts = List.map snd entries in
  check Alcotest.bool "busiest first" true
    (List.stable_sort (fun a b -> compare b a) counts = counts);
  check Alcotest.int "counts are the kernel's"
    (Array.fold_left ( + ) 0 toggles)
    (List.fold_left ( + ) 0 counts)

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
