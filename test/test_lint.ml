(* Tests for the lint subsystem: the diagnostic core (ordering, waivers,
   emitters), the independent phase-legality / hold / clock-network /
   reset audits, RTL lints, and mutation soundness — every injected
   violation class must fire its rule while clean designs stay silent. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder
module D = Netlist.Design
module Diag = Lint_core.Diagnostic

let three_phase ?(period = 1.0) () =
  Sim.Clock_spec.three_phase ~period ~p1:"p1" ~p2:"p2" ~p3:"p3" ()

let is_infix s sub = Astring.String.is_infix ~affix:sub s

let gen_spec ?(layers = [|6; 6; 5|]) seed =
  { Circuits.Generator.name = Printf.sprintf "lintg%d" seed;
    seed; inputs = 6; outputs = 4; layers; fanin = 3; cone_depth = 4;
    self_loop_fraction = 0.3; cross_feedback = 0.25; reuse = 0.25;
    gated_fraction = 0.4; bank_size = 4; po_cones = 4;
    frequency_mhz = 1000.0 }

(* convert a generated circuit; the flow's own lint stage is left on, so
   reaching the result at all already means the auditor found no error *)
let convert seed =
  let d = Circuits.Generator.synthesize (gen_spec seed) in
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.verify_equivalence = false;
      activity_cycles = 16 }
  in
  Phase3.Flow.run ~config d

let rules_of report =
  List.filter_map
    (fun d -> if Diag.is_error d && not d.Diag.waived then Some d.Diag.rule else None)
    report.Lint.Engine.diagnostics

let has_rule report rule = List.exists (String.equal rule) (rules_of report)

(* --- diagnostic core --- *)

let test_diag_order () =
  let d1 = Diag.make ~rule:"NET-005" ~severity:Diag.Warning ~loc:(Diag.Object "b") "w" in
  let d2 = Diag.make ~rule:"PHASE-003" ~severity:Diag.Error ~loc:(Diag.Object "z") "e" in
  let d3 = Diag.make ~rule:"RST-001" ~severity:Diag.Info "i" in
  let d4 = Diag.make ~rule:"PHASE-001" ~severity:Diag.Error ~loc:(Diag.Object "a") "e" in
  let sorted = List.sort Diag.compare [d1; d3; d2; d4] in
  check (Alcotest.list Alcotest.string) "errors first, then rule order"
    ["PHASE-001"; "PHASE-003"; "NET-005"; "RST-001"]
    (List.map (fun d -> d.Diag.rule) sorted);
  let e, w, i = Diag.counts [d1; d2; d3; d4] in
  check Alcotest.(triple int int int) "counts" (2, 1, 1) (e, w, i);
  (* waived entries drop out of the counts but stay in the list *)
  let e, w, i = Diag.counts [{ d2 with Diag.waived = true }; d1] in
  check Alcotest.(triple int int int) "waived not counted" (0, 1, 0) (e, w, i);
  check Alcotest.string "loc strings" "design" (Diag.loc_string Diag.Design_level);
  check Alcotest.string "src loc" "a.sv:3:7"
    (Diag.loc_string (Diag.Src { Diag.file = "a.sv"; line = 3; col = 7 }))

let test_waivers () =
  let gm pattern s = Lint_core.Waiver.glob_match ~pattern s in
  check Alcotest.bool "star suffix" true (gm "PHASE-*" "PHASE-003");
  check Alcotest.bool "anchored" false (gm "NET-1" "NET-001");
  check Alcotest.bool "bare star" true (gm "*" "anything");
  check Alcotest.bool "backtracking" true (gm "a*b*c" "axxbyybzc");
  check Alcotest.bool "no match" false (gm "a*b*c" "axxbyyb");
  (match Lint_core.Waiver.parse "# comment\n\nPHASE-003 mul*\nRST-*\n" with
   | Error e -> Alcotest.failf "parse failed: %s" e
   | Ok entries ->
     check Alcotest.int "two entries" 2 (List.length entries);
     let d1 =
       Diag.make ~rule:"PHASE-003" ~severity:Diag.Error
         ~loc:(Diag.Object "mul$acc3 -> mul$acc4") "borrow"
     in
     let d2 =
       Diag.make ~rule:"PHASE-003" ~severity:Diag.Error
         ~loc:(Diag.Object "pc -> pc2") "borrow"
     in
     let d3 = Diag.make ~rule:"RST-001" ~severity:Diag.Info "no reset" in
     (match Lint_core.Waiver.apply entries [d1; d2; d3] with
      | [w1; w2; w3] ->
        check Alcotest.bool "loc glob waives" true w1.Diag.waived;
        check Alcotest.bool "other loc stays" false w2.Diag.waived;
        check Alcotest.bool "rule glob waives" true w3.Diag.waived
      | _ -> Alcotest.fail "apply changed the list length"));
  (match Lint_core.Waiver.parse "A B C\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "three fields should be rejected")

let test_emitters () =
  let ds =
    [ Diag.make ~rule:"PHASE-001" ~severity:Diag.Error ~loc:(Diag.Object "l1 -> l2")
        "same-phase \"arc\"";
      { (Diag.make ~rule:"NET-005" ~severity:Diag.Warning ~loc:(Diag.Object "n")
           "dangles")
        with Diag.waived = true };
      Diag.make ~rule:"RTL-001" ~severity:Diag.Warning
        ~loc:(Diag.Src { Diag.file = "t.sv"; line = 2; col = 5 }) "truncates" ]
  in
  let text = Format.asprintf "%a" (Lint_core.Emit.text ~show_waived:false) ds in
  check Alcotest.bool "text summary" true
    (is_infix text "1 error(s), 1 warning(s), 0 info(s)");
  check Alcotest.bool "waived hidden by default" false (is_infix text "NET-005");
  let text_w = Format.asprintf "%a" (Lint_core.Emit.text ~show_waived:true) ds in
  check Alcotest.bool "waived shown on demand" true (is_infix text_w "(waived)");
  let json = Format.asprintf "%a" Lint_core.Emit.json ds in
  check Alcotest.bool "json has diagnostics" true (is_infix json "\"diagnostics\"");
  check Alcotest.bool "json escapes quotes" true
    (is_infix json "same-phase \\\"arc\\\"");
  check Alcotest.bool "json summary errors" true (is_infix json "\"errors\": 1");
  let sarif = Format.asprintf "%a" Lint_core.Emit.sarif ds in
  check Alcotest.bool "sarif schema" true (is_infix sarif "sarif-schema-2.1.0");
  check Alcotest.bool "sarif suppressions" true (is_infix sarif "suppressions");
  check Alcotest.bool "sarif physical location" true
    (is_infix sarif "\"startLine\": 2");
  check Alcotest.bool "sarif level note absent" false (is_infix sarif "\"note\"")

let test_excerpt_tab_caret () =
  (* the caret must line up under the token once tabs expand: byte
     column 3 of "\t\tassign" renders at text column 16 *)
  let source = "line1\n\t\tassign y = q;\n" in
  let loc = Netlist_io.Srcloc.make ~file:"t.sv" ~line:2 ~col:3 in
  (match Netlist_io.Srcloc.excerpt ~source loc with
   | None -> Alcotest.fail "excerpt expected"
   | Some e ->
     (match String.split_on_char '\n' e with
      | [text; caret] ->
        check Alcotest.bool "tabs expanded" false (String.contains text '\t');
        check Alcotest.bool "caret line is spaces + ^" true
          (not (String.contains caret '\t'));
        let caret_at = String.index caret '^' in
        let token_at =
          (* the 'a' of "assign" in the expanded, 2-space-prefixed text *)
          Astring.String.find_sub ~sub:"assign" text |> Option.get
        in
        check Alcotest.int "caret under the token" token_at caret_at
      | _ -> Alcotest.fail "excerpt is two lines"));
  (* column past the end of the line clamps instead of raising *)
  let loc = Netlist_io.Srcloc.make ~file:"t.sv" ~line:1 ~col:99 in
  (match Netlist_io.Srcloc.excerpt ~source loc with
   | Some _ -> ()
   | None -> Alcotest.fail "clamped excerpt expected")

(* --- the engine on clean designs --- *)

let test_flow_reports_lint () =
  let r = convert 3 in
  (match r.Phase3.Flow.lint with
   | None -> Alcotest.fail "flow should carry a lint report"
   | Some report ->
     check Alcotest.int "no errors on a converted design" 0
       report.Lint.Engine.errors;
     check Alcotest.bool "report is ok" true (Lint.Engine.ok report));
  check Alcotest.bool "lint stage timed" true
    (List.mem_assoc "lint" r.Phase3.Flow.stage_times)

let test_clean_designs_silent () =
  (* original (single-clock FF) and converted (3-phase) suite designs
     both audit clean; only warnings and infos remain *)
  let d = Circuits.Generator.synthesize Circuits.Iscas.s1196 in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let report = Lint.Engine.run d ~clocks in
  check Alcotest.int "s1196 original has no errors" 0 report.Lint.Engine.errors;
  let r = convert 11 in
  let report =
    Lint.Engine.run r.Phase3.Flow.final ~clocks:(three_phase ())
  in
  check Alcotest.int "converted design has no errors" 0
    report.Lint.Engine.errors;
  List.iter
    (fun rule -> Alcotest.failf "unexpected error rule %s" rule)
    (rules_of report)

(* --- mutation soundness: injected violations must fire --- *)

(* two transparent-high latches on the same phase with only a buffer
   between them: a transparency race the auditor must reject *)
let test_same_phase_race () =
  let b = B.create ~name:"race" ~library:lib in
  let p1 = B.add_input ~clock:true b "p1" in
  let _p2 = B.add_input ~clock:true b "p2" in
  let _p3 = B.add_input ~clock:true b "p3" in
  let d_in = B.add_input b "d" in
  let n1 = B.fresh_net b "n1" in
  ignore (B.add_cell b "l1" "LATH_X1" [("E", p1); ("D", d_in); ("Q", n1)]);
  let n2 = B.fresh_net b "n2" in
  ignore (B.add_cell b "u1" "BUF_X2" [("A", n1); ("Z", n2)]);
  let n3 = B.fresh_net b "n3" in
  ignore (B.add_cell b "l2" "LATH_X1" [("E", p1); ("D", n2); ("Q", n3)]);
  B.add_output b "y" n3;
  let d = B.freeze b in
  let report = Lint.Engine.run d ~clocks:(three_phase ()) in
  check Alcotest.bool "PHASE-001 fires" true (has_rule report "PHASE-001")

let enable_pin_of d i =
  match (D.cell d i).Cell_lib.Cell.kind with
  | Cell_lib.Cell.Latch { enable_pin; _ } -> enable_pin
  | _ -> Alcotest.failf "%s is not a latch" (D.inst_name d i)

let data_pin_of d i =
  match (D.cell d i).Cell_lib.Cell.kind with
  | Cell_lib.Cell.Latch { data_pin; _ } | Cell_lib.Cell.Flip_flop { data_pin; _ } ->
    data_pin
  | _ -> Alcotest.failf "%s is not sequential" (D.inst_name d i)

(* retarget the enable of one inserted p2 latch to another phase's port:
   the phase-sequence audit must notice even though the assignment that
   produced the design was optimal *)
let retarget_enable d ~victim ~port =
  let pnet =
    match D.find_input d port with
    | Some n -> n
    | None -> Alcotest.failf "no port %s" port
  in
  let rw = Netlist.Rewrite.start d in
  List.iter
    (fun i ->
      if String.equal (D.inst_name d i) victim then
        Netlist.Rewrite.copy_inst
          ~override:[(enable_pin_of d i, Netlist.Rewrite.map_net rw pnet)]
          rw i
      else Netlist.Rewrite.copy_inst rw i)
    (D.insts d);
  Netlist.Rewrite.finish rw

let inserted_p2_latches d =
  List.filter
    (fun i ->
      Cell_lib.Cell.is_latch (D.cell d i)
      && is_infix (D.inst_name d i) Phase3.Convert.p2_suffix)
    (D.sequential_insts d)

let test_phase_skip_mutation () =
  let final = (convert 5).Phase3.Flow.final in
  match inserted_p2_latches final with
  | [] -> Alcotest.fail "no inserted p2 latch to mutate"
  | victim :: _ ->
    let mutated =
      retarget_enable final ~victim:(D.inst_name final victim) ~port:"p1"
    in
    let report = Lint.Engine.run mutated ~clocks:(three_phase ()) in
    check Alcotest.bool "phase mutation is caught" true
      (report.Lint.Engine.errors > 0);
    check Alcotest.bool "a PHASE rule fires" true
      (List.exists (fun r -> is_infix r "PHASE-0") (rules_of report))

(* stretch one latch's data path with a long buffer chain: the borrow on
   that arc overruns the transparency window *)
let test_borrow_overrun_mutation () =
  let final = (convert 7).Phase3.Flow.final in
  let victim =
    match inserted_p2_latches final with
    | v :: _ -> v
    | [] -> Alcotest.fail "no latch to mutate"
  in
  let vname = D.inst_name final victim in
  let rw = Netlist.Rewrite.start final in
  List.iter
    (fun i ->
      if String.equal (D.inst_name final i) vname then begin
        let dn = Option.get (D.data_net_of final i) in
        let src = ref (Netlist.Rewrite.map_net rw dn) in
        let b = Netlist.Rewrite.builder rw in
        for k = 1 to 30 do
          let out = B.fresh_net b (Printf.sprintf "mut_n%d" k) in
          ignore
            (B.add_cell b (Printf.sprintf "mut_buf%d" k) "BUF_X2"
               [("A", !src); ("Z", out)]);
          src := out
        done;
        Netlist.Rewrite.copy_inst
          ~override:[(data_pin_of final i, !src)] rw i
      end
      else Netlist.Rewrite.copy_inst rw i)
    (D.insts final);
  let mutated = Netlist.Rewrite.finish rw in
  let report = Lint.Engine.run mutated ~clocks:(three_phase ()) in
  check Alcotest.bool "borrow overrun is caught" true
    (List.exists
       (fun r -> String.equal r "PHASE-002" || String.equal r "PHASE-003")
       (rules_of report))

(* gate a latch enable with an ICG whose EN is computed from the clock
   itself: a glitch-prone gated clock the clock-network audit rejects *)
let test_gated_clock_glitch_mutation () =
  let b = B.create ~name:"glitch" ~library:lib in
  let p1 = B.add_input ~clock:true b "p1" in
  let _p2 = B.add_input ~clock:true b "p2" in
  let _p3 = B.add_input ~clock:true b "p3" in
  let d_in = B.add_input b "d" in
  let en = B.fresh_net b "en" in
  ignore (B.add_cell b "u_en" "AND2_X1" [("A1", p1); ("A2", d_in); ("Z", en)]);
  let gck = B.fresh_net b "gck" in
  ignore (B.add_cell b "u_icg" "ICG_X1" [("CK", p1); ("EN", en); ("GCK", gck)]);
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "l1" "LATH_X1" [("E", gck); ("D", d_in); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let report = Lint.Engine.run d ~clocks:(three_phase ()) in
  check Alcotest.bool "CLK-003 fires on a clock-derived enable" true
    (has_rule report "CLK-003");
  check Alcotest.bool "CLK-002 fires on the clock-to-data sink" true
    (has_rule report "CLK-002")

let test_undriven_mutation () =
  let b = B.create ~name:"undriven" ~library:lib in
  let _clk = B.add_input ~clock:true b "clock" in
  let a = B.add_input b "a" in
  let floating = B.fresh_net b "floating" in
  let y = B.fresh_net b "y" in
  ignore (B.add_cell b "u1" "AND2_X1" [("A1", a); ("A2", floating); ("Z", y)]);
  B.add_output b "y" y;
  let d = B.freeze b in
  let report =
    Lint.Engine.run d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clock")
  in
  check Alcotest.bool "NET-001 fires" true (has_rule report "NET-001")

(* the loop n1 -> n2 -> n1 beside a register: NET-002 reports it, and
   the passes that need an acyclic network (register views, the phase
   and hold audits) stay silent instead of raising *)
let test_comb_loop_reported () =
  let b = B.create ~name:"loop" ~library:lib in
  let clk = B.add_input ~clock:true b "clock" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "r" in
  let n1 = B.fresh_net b "n1" in
  let n2 = B.fresh_net b "n2" in
  let y = B.fresh_net b "y" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", n2); ("Q", q)]);
  ignore (B.add_cell b "g1" "NAND2_X1" [("A1", a); ("A2", n2); ("ZN", n1)]);
  ignore (B.add_cell b "g2" "INV_X1" [("A", n1); ("ZN", n2)]);
  ignore (B.add_cell b "g3" "AND2_X1" [("A1", q); ("A2", n1); ("Z", y)]);
  B.add_output b "y" y;
  let d = B.freeze b in
  let report =
    Lint.Engine.run d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clock")
  in
  check (Alcotest.list Alcotest.string) "one NET-002 error" ["NET-002"]
    (rules_of report);
  List.iter
    (fun dg ->
      if Astring.String.is_prefix ~affix:"PHASE-" dg.Diag.rule
         || Astring.String.is_prefix ~affix:"HOLD-" dg.Diag.rule
      then Alcotest.failf "timing finding %s on a looping design" dg.Diag.rule)
    report.Lint.Engine.diagnostics

(* registers clocked by a port the clock specification has no waveform
   for: one PHASE-006 error per register, naming the port *)
let test_unknown_clock_port () =
  let d = Circuits.Linear_pipeline.make ~width:3 ~stages:2 () in
  let report =
    Lint.Engine.run d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"other")
  in
  let phase6 =
    List.filter (fun dg -> String.equal dg.Diag.rule "PHASE-006")
      report.Lint.Engine.diagnostics
  in
  check (Alcotest.list Alcotest.string) "one per register"
    (List.sort String.compare
       (List.map (D.inst_name d) (D.sequential_insts d)))
    (List.sort String.compare
       (List.map (fun dg -> Diag.loc_string dg.Diag.loc) phase6));
  List.iter
    (fun dg ->
      check Alcotest.bool "error" true (Diag.is_error dg);
      check Alcotest.bool "names port clk" true
        (is_infix dg.Diag.message "by port clk "))
    phase6

(* --- RTL lints collected during elaboration --- *)

let elab_lints src =
  let _, findings =
    Elab.Diag.collect (fun () ->
        Elab.Elaborate.read ~file:"t.sv" ~library:lib src)
  in
  List.map (fun d -> d.Diag.rule) findings

let test_rtl_lints () =
  let rules =
    elab_lints
      "module m(input logic clk, input logic [7:0] a, output logic [3:0] y);\n\
       \  always_ff @(posedge clk) y <= a;\nendmodule\n"
  in
  check Alcotest.bool "RTL-001 truncation" true
    (List.mem "RTL-001" rules);
  let rules =
    elab_lints
      "module m(input logic [1:0] s, output logic y);\n\
       \  always_comb begin\n\
       \    case (s)\n\
       \      2'd1: y = 1'b1;\n\
       \      3'd5: y = 1'b0;\n\
       \      2'd1: y = 1'b0;\n\
       \      default: y = 1'b0;\n\
       \    endcase\n\
       \  end\nendmodule\n"
  in
  check Alcotest.int "RTL-002 never-match and duplicate" 2
    (List.length (List.filter (String.equal "RTL-002") rules));
  let rules =
    elab_lints
      "module m(input logic a, output logic y);\n\
       \  logic unused;\n\
       \  assign unused = a;\n\
       \  assign y = a;\nendmodule\n"
  in
  check Alcotest.bool "RTL-003 never read" true (List.mem "RTL-003" rules);
  let rules =
    elab_lints
      "module m(input logic a, output logic y);\n\
       \  logic ghost;\n\
       \  assign y = a & ghost;\nendmodule\n"
  in
  check Alcotest.bool "RTL-004 never driven" true (List.mem "RTL-004" rules);
  (* a clean module stays silent *)
  check (Alcotest.list Alcotest.string) "clean module" []
    (elab_lints
       "module m(input logic a, input logic b, output logic y);\n\
        \  assign y = a & b;\nendmodule\n")

(* --- cross-check against the hold fixer --- *)

let test_hold_cross_check () =
  let final = (convert 13).Phase3.Flow.final in
  let clocks = three_phase () in
  let holds (r : Sta.Smo.report) =
    List.exists (fun (v : Sta.Smo.violation) -> v.kind = `Hold) r.violations
  in
  check Alcotest.bool "hold violated under a tight margin" true
    (holds (Sta.Smo.check ~hold_margin:0.1 final ~clocks));
  let fixed, stats = Sta.Hold_fix.run ~hold_margin:0.1 final ~clocks in
  check Alcotest.bool "hold fixer converged" true stats.Sta.Hold_fix.fixed;
  check Alcotest.bool "hold met after the fix" false
    (holds (Sta.Smo.check ~hold_margin:0.1 fixed ~clocks));
  check Alcotest.bool "HOLD-001 silent after the fix" false
    (has_rule (Lint.Engine.run fixed ~clocks) "HOLD-001")

(* --- waivers end to end --- *)

let test_waived_report () =
  let final = (convert 5).Phase3.Flow.final in
  let victim =
    match inserted_p2_latches final with
    | v :: _ -> D.inst_name final v
    | [] -> Alcotest.fail "no latch"
  in
  let mutated = retarget_enable final ~victim ~port:"p1" in
  let clocks = three_phase () in
  let dirty = Lint.Engine.run mutated ~clocks in
  check Alcotest.bool "mutation reports errors" true (dirty.Lint.Engine.errors > 0);
  (* waiving every firing rule drives the error count to zero while the
     findings stay visible in the diagnostic list *)
  let waivers =
    List.map
      (fun rule ->
        { Lint_core.Waiver.rule_pattern = rule; loc_pattern = "*"; line = 1 })
      (List.sort_uniq String.compare (rules_of dirty))
  in
  let waived = Lint.Engine.run ~waivers mutated ~clocks in
  check Alcotest.int "waived errors gone" 0 waived.Lint.Engine.errors;
  check Alcotest.bool "waived findings kept" true
    (List.exists (fun d -> d.Diag.waived) waived.Lint.Engine.diagnostics)

(* --- qcheck: soundness over generated circuits --- *)

let qcheck_converted_clean =
  QCheck.Test.make ~count:6 ~name:"converted designs audit clean"
    QCheck.(int_range 20 2000)
    (fun seed ->
      (* the flow raises when its lint stage finds an error *)
      let r = convert seed in
      match r.Phase3.Flow.lint with
      | Some report -> report.Lint.Engine.errors = 0
      | None -> false)

let qcheck_phase_mutation_caught =
  QCheck.Test.make ~count:6 ~name:"phase mutations never go unnoticed"
    QCheck.(pair (int_range 20 2000) bool)
    (fun (seed, to_p1) ->
      let final = (convert seed).Phase3.Flow.final in
      match inserted_p2_latches final with
      | [] -> QCheck.assume_fail ()
      | v :: _ ->
        let mutated =
          retarget_enable final ~victim:(D.inst_name final v)
            ~port:(if to_p1 then "p1" else "p3")
        in
        let report = Lint.Engine.run mutated ~clocks:(three_phase ()) in
        report.Lint.Engine.errors > 0)

let suite =
  [ Alcotest.test_case "diagnostic ordering and counts" `Quick test_diag_order;
    Alcotest.test_case "waiver globs, parsing, application" `Quick test_waivers;
    Alcotest.test_case "text, json and sarif emitters" `Quick test_emitters;
    Alcotest.test_case "excerpt caret aligns across tabs" `Quick
      test_excerpt_tab_caret;
    Alcotest.test_case "flow carries the lint report" `Quick
      test_flow_reports_lint;
    Alcotest.test_case "clean designs are silent" `Quick
      test_clean_designs_silent;
    Alcotest.test_case "same-phase transparency race" `Quick
      test_same_phase_race;
    Alcotest.test_case "phase-skip mutation caught" `Quick
      test_phase_skip_mutation;
    Alcotest.test_case "borrow-overrun mutation caught" `Quick
      test_borrow_overrun_mutation;
    Alcotest.test_case "gated-clock glitch caught" `Quick
      test_gated_clock_glitch_mutation;
    Alcotest.test_case "undriven net caught" `Quick test_undriven_mutation;
    Alcotest.test_case "combinational loop reported, not raised" `Quick
      test_comb_loop_reported;
    Alcotest.test_case "unknown clock port per register" `Quick
      test_unknown_clock_port;
    Alcotest.test_case "rtl lints fire and stay silent" `Quick test_rtl_lints;
    Alcotest.test_case "hold audit agrees with the fixer" `Quick
      test_hold_cross_check;
    Alcotest.test_case "waivers suppress but keep findings" `Quick
      test_waived_report;
    QCheck_alcotest.to_alcotest qcheck_converted_clean;
    QCheck_alcotest.to_alcotest qcheck_phase_mutation_caught ]
