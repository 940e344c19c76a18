(* Smoke tests for the experiment harness shared by bench/main.exe. *)

let check = Alcotest.check

let test_fig1_table () =
  let t = Experiments.Tables.fig1 ~widths:[2] ~stages:[2; 3; 4] () in
  let rendered = Report.Table.render t in
  check Alcotest.bool "no failures flagged" false
    (Astring.String.is_infix ~affix:"NO" rendered);
  check Alcotest.bool "rows present" true
    (Astring.String.is_infix ~affix:"w2 x s3" rendered)

let test_fig2_table () =
  let t = Experiments.Tables.fig2 () in
  let rendered = Report.Table.render t in
  check Alcotest.bool "both styles shown" true
    (Astring.String.is_infix ~affix:"enabled clock" rendered
     && Astring.String.is_infix ~affix:"gated clock" rendered)

let test_fig3_table () =
  let t = Experiments.Tables.fig3 () in
  let rendered = Report.Table.render t in
  check Alcotest.bool "trace rows" true
    (Astring.String.is_infix ~affix:"gck2" rendered)

let test_runner_small_bench () =
  match Circuits.Suite.find "s1196" with
  | None -> Alcotest.fail "s1196 missing"
  | Some b ->
    let r = Experiments.Runner.run ~cycles:96 b in
    check Alcotest.bool "3P register saving positive" true
      (r.Experiments.Runner.threep.Experiments.Runner.regs
       < 2 * r.Experiments.Runner.ff.Experiments.Runner.regs);
    check Alcotest.bool "M-S doubles registers" true
      (r.Experiments.Runner.ms.Experiments.Runner.regs
       = 2 * r.Experiments.Runner.ff.Experiments.Runner.regs);
    check Alcotest.bool "powers positive" true
      (Power.Estimate.total r.Experiments.Runner.ff.Experiments.Runner.power > 0.0
       && Power.Estimate.total r.Experiments.Runner.threep.Experiments.Runner.power > 0.0);
    let t1 = Experiments.Tables.table1 [r] in
    let t2 = Experiments.Tables.table2 [r] in
    check Alcotest.int "two table-1 views" 2 (List.length t1);
    check Alcotest.int "one table-2 view" 1 (List.length t2)

(* Runner.run draws the workload once and measures its three design
   styles on that draw: each style's power equals the one its own draw
   gives (Runner.power_of: hold fix, then a draw over the design's own
   inputs, lane l seeded 2024 + l) *)
let test_runner_shares_one_draw () =
  let b = Option.get (Circuits.Suite.find "s1196") in
  let cycles = 48 in
  let r = Experiments.Runner.run ~cycles b in
  let period = b.Circuits.Suite.period_ns in
  let ff_clocks =
    Phase3.Flow.reference_clocks r.Experiments.Runner.ff.Experiments.Runner.design
      ~period
  in
  List.iter
    (fun (name, (v : Experiments.Runner.variant), clocks) ->
      let own =
        Experiments.Runner.power_of v.Experiments.Runner.design ~clocks
          ~workload:b.Circuits.Suite.workload ~cycles ~seed:2024
      in
      if own <> v.Experiments.Runner.power then
        Alcotest.failf "%s: %g mW on the shared draw, %g on its own" name
          (Power.Estimate.total v.Experiments.Runner.power)
          (Power.Estimate.total own))
    [ ("ff", r.Experiments.Runner.ff, ff_clocks);
      ("ms", r.Experiments.Runner.ms, ff_clocks);
      ("3p", r.Experiments.Runner.threep,
       Phase3.Flow.clocks_of r.Experiments.Runner.flow.Phase3.Flow.config) ]

(* the runner's variants may run on two domains and share one draw:
   the tables and the words drawn do not depend on the domain count *)
let test_runner_jobs_determinism () =
  let b = Option.get (Circuits.Suite.find "s1196") in
  let saved = Sys.getenv_opt "THREEPHASE_JOBS" in
  let run jobs =
    Unix.putenv "THREEPHASE_JOBS" jobs;
    Obs.reset ();
    let r = Experiments.Runner.run ~cycles:48 b in
    let tables =
      List.map Report.Table.render
        (Experiments.Tables.table1 [r] @ Experiments.Tables.table2 [r])
    in
    (tables, Obs.counter_of "sim.stimulus.words")
  in
  let one = run "1" and two = run "2" in
  Unix.putenv "THREEPHASE_JOBS"
    (match saved with
     | Some v -> v
     | None -> string_of_int (Domain.recommended_domain_count ()));
  Obs.reset ();
  check Alcotest.(list string) "tables" (fst one) (fst two);
  check Alcotest.int "stimulus words" (snd one) (snd two);
  if snd one = 0 then Alcotest.fail "the runner drew no stimulus"

(* The master-slave check is the verdict over the FF and M-S power
   runs' output samples: a run shorter than the check's minimum is
   refused by that verdict, and the check compares every cycle of the
   power draw past the warmup, next to the flow's own check *)
let test_runner_ms_check_reads_power_runs () =
  let b = Option.get (Circuits.Suite.find "s1196") in
  let short = Sim.Equivalence.min_cycles () - 1 in
  (match Experiments.Runner.run ~cycles:short b with
   | _ -> Alcotest.failf "ran the check on %d cycles" short
   | exception Invalid_argument msg ->
     if not (Astring.String.is_prefix ~affix:"Equivalence.verdict:" msg) then
       Alcotest.failf "refused by another check: %s" msg);
  let cycles = 48 in
  Obs.reset ();
  let r = Experiments.Runner.run ~cycles b in
  let compared = Obs.counter_of "sim.equivalence.compared" in
  Obs.reset ();
  let flow = r.Experiments.Runner.flow in
  let outputs =
    List.length flow.Phase3.Flow.original.Netlist.Design.primary_outputs
  in
  check Alcotest.bool "the flow's check: shift 0" true
    (flow.Phase3.Flow.equivalence
     = Some (Sim.Equivalence.Equivalent { shift = 0 }));
  (* both match at shift 0: cycles past the warmup times the outputs *)
  check Alcotest.int "words compared"
    (((flow.Phase3.Flow.config.Phase3.Flow.verify_cycles - 8)
      + (cycles - 8)) * outputs)
    compared

(* the measurement refuses a draw over other inputs, or over the
   design's inputs in another order *)
let test_measure_refuses_other_inputs () =
  let b = Option.get (Circuits.Suite.find "s1196") in
  let d = b.Circuits.Suite.build () in
  let clocks = Phase3.Flow.reference_clocks d ~period:1.0 in
  let draw inputs =
    Sim.Stimulus.draw ~seeds:(Array.init Sim.Kernel.max_lanes Fun.id) ~cycles:4
      (Sim.Stimulus.Uniform 0.25) inputs
  in
  let inputs = Sim.Stimulus.inputs_of d in
  List.iter
    (fun (what, inputs) ->
      match Qor.Collect.measure d ~clocks ~stimulus:(draw inputs) with
      | _ -> Alcotest.failf "measured on a draw of %s" what
      | exception Invalid_argument _ -> ())
    [ ("the inputs reversed", List.rev inputs);
      ("one input fewer", List.tl inputs) ]

let test_report_table_layout () =
  let t = Report.Table.create ~title:"T" [("a", Report.Table.Left); ("b", Report.Table.Right)] in
  Report.Table.add_row t ["x"; "1"];
  Report.Table.add_rule t;
  Report.Table.add_row t ["longer"; "22"];
  let s = Report.Table.render t in
  check Alcotest.bool "contains rows" true
    (Astring.String.is_infix ~affix:"longer" s);
  check Alcotest.string "pct" "25.0" (Report.Table.pct ~ref_:4.0 3.0)

let suite =
  [ Alcotest.test_case "fig1 table" `Quick test_fig1_table;
    Alcotest.test_case "fig2 table" `Slow test_fig2_table;
    Alcotest.test_case "fig3 table" `Quick test_fig3_table;
    Alcotest.test_case "runner on s1196" `Slow test_runner_small_bench;
    Alcotest.test_case "report table layout" `Quick test_report_table_layout;
    Alcotest.test_case "runner's master-slave check reads its power runs"
      `Quick test_runner_ms_check_reads_power_runs;
    Alcotest.test_case "runner shares one draw" `Quick
      test_runner_shares_one_draw;
    Alcotest.test_case "runner tables and draws do not depend on jobs" `Quick
      test_runner_jobs_determinism;
    Alcotest.test_case "measure refuses another design's draw" `Quick
      test_measure_refuses_other_inputs ]
