(* Tests for the conversion flow itself: assignment optimality and
   constraint compliance (the paper's C1-C3), netlist conversion, the
   master-slave baseline, retiming and clock gating — including
   property-style sweeps over generated circuits. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder
module D = Netlist.Design
module A = Phase3.Assignment

let gen_spec ?(layers = [|6; 6; 5|]) ?(self_loop = 0.3) ?(cross = 0.25)
    ?(gated = 0.4) seed =
  { Circuits.Generator.name = Printf.sprintf "g%d" seed;
    seed; inputs = 6; outputs = 4; layers; fanin = 3; cone_depth = 4;
    self_loop_fraction = self_loop; cross_feedback = cross; reuse = 0.25;
    gated_fraction = gated; bank_size = 4; po_cones = 4;
    frequency_mhz = 1000.0 }

(* phase of a sequential element in a converted design *)
let phase_of d i =
  match D.clock_net_of d i with
  | None -> None
  | Some cn ->
    Option.map (fun t -> t.Netlist.Clocking.root_port)
      (Netlist.Clocking.trace_to_root d cn)

(* C2 as a structural property: no combinational path connects two latches
   of the same phase, and p3 latches only reach p2 latches ("no direct
   data path from p3 to p1"). *)
let check_phase_adjacency d =
  let seqs = D.sequential_insts d in
  let classes =
    List.fold_left
      (fun acc phase ->
        let nets =
          List.filter_map
            (fun i ->
              if phase_of d i = Some phase then D.q_net_of d i else None)
            seqs
        in
        (phase, nets) :: acc)
      [] ["p1"; "p2"; "p3"]
  in
  let g = Sta.Graph.create d in
  let arrivals =
    List.map (fun (phase, nets) -> (phase, Sta.Graph.forward g nets)) classes
  in
  List.iter
    (fun i ->
      match phase_of d i, D.data_net_of d i with
      | Some dst_phase, Some dn ->
        List.iter
          (fun (src_phase, (amax, _)) ->
            let reachable = amax.(dn) > Float.neg_infinity in
            if reachable && String.equal src_phase dst_phase then
              Alcotest.failf "same-phase %s data path into %s" dst_phase
                (D.inst_name d i);
            if reachable && String.equal src_phase "p3"
               && String.equal dst_phase "p1" then
              Alcotest.failf "direct p3 -> p1 path into %s" (D.inst_name d i))
          arrivals
      | (Some _ | None), _ -> ())
    seqs

(* C1: every original flip-flop position is still latched (same instance
   name exists as a latch whose Q drives the same logical net name). *)
let check_positions_latched original converted =
  List.iter
    (fun i ->
      let name = D.inst_name original i in
      match D.find_inst converted name with
      | None -> Alcotest.failf "original register %s lost" name
      | Some j ->
        if not (Cell_lib.Cell.is_latch (D.cell converted j)) then
          Alcotest.failf "original register %s is not a latch" name)
    (D.sequential_insts original)

(* --- Assignment --- *)

let test_assignment_chain () =
  (* a 4-stage 1-bit chain fed by an input: optimal = 2 inserted (even
     positions single, cf. Section III-B) *)
  let d = Circuits.Linear_pipeline.make ~width:1 ~stages:4 () in
  let asg = A.solve ~solver:`Ilp d in
  check Alcotest.int "inserted" 2 asg.A.inserted_latches;
  check Alcotest.bool "optimal" true asg.A.optimal;
  check (Alcotest.list Alcotest.string) "no input latch needed" []
    asg.A.pi_latches

let test_assignment_self_loop_forced () =
  let b = B.create ~name:"loop" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let q = B.fresh_net b "q" in
  let nq = B.fresh_net b "nq" in
  ignore (B.add_cell b "inv" "INV_X1" [("A", q); ("ZN", nq)]);
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", nq); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let asg = A.solve d in
  check Alcotest.int "self-loop pairs" 1 asg.A.inserted_latches;
  check Alcotest.bool "plan is a pair" true
    (match asg.A.plans.(0) with
     | A.Pair_p1 | A.Pair_p3 -> true
     | A.Single_p1 -> false)

let test_assignment_pi_latch () =
  (* input feeding a register whose optimal phase is p1 forces an input
     latch; construct: in -> r (no other registers) *)
  let b = B.create ~name:"pi" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let n = B.fresh_net b "n" in
  ignore (B.add_cell b "i" "INV_X1" [("A", a); ("ZN", n)]);
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", n); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let asg = A.solve ~solver:`Ilp d in
  (* either the register pairs (cost 1) or stays single with an input
     latch (cost 1): both optimal with objective 1 *)
  check Alcotest.int "objective 1" 1 asg.A.inserted_latches;
  check (Alcotest.list Alcotest.string) "no validation issues" []
    (A.validate d asg)

let test_assignment_solvers_agree () =
  List.iter
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let ilp = A.solve ~solver:`Ilp d in
      let mis = A.solve ~solver:`Mis d in
      check Alcotest.int
        (Printf.sprintf "seed %d: ILP = MIS objective" seed)
        ilp.A.inserted_latches mis.A.inserted_latches;
      let greedy = A.solve ~solver:`Greedy d in
      check Alcotest.bool "greedy not better than exact" true
        (greedy.A.inserted_latches >= mis.A.inserted_latches);
      check (Alcotest.list Alcotest.string) "ILP valid" [] (A.validate d ilp);
      check (Alcotest.list Alcotest.string) "MIS valid" [] (A.validate d mis);
      check (Alcotest.list Alcotest.string) "greedy valid" [] (A.validate d greedy))
    [3; 4; 5; 6]

let test_total_latches_formula () =
  let d = Circuits.Generator.synthesize (gen_spec 9) in
  let asg = A.solve d in
  let converted = Phase3.Convert.to_three_phase d asg in
  let stats = Netlist.Stats.compute converted in
  check Alcotest.int "total_latches matches converted netlist"
    (A.total_latches asg) stats.Netlist.Stats.latches

(* --- Convert --- *)

let test_convert_invariants () =
  List.iter
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let asg = A.solve d in
      let converted = Phase3.Convert.to_three_phase d asg in
      (match Netlist.Check.validate converted with
       | Ok () -> ()
       | Error es -> Alcotest.failf "invalid: %s" (String.concat ";" es));
      check_positions_latched d converted;
      check_phase_adjacency converted;
      let stats = Netlist.Stats.compute converted in
      check Alcotest.int "no flip-flops remain" 0 stats.Netlist.Stats.flip_flops)
    [11; 12; 13]

let test_convert_preserves_streams () =
  List.iter
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let asg = A.solve d in
      let converted = Phase3.Convert.to_three_phase d asg in
      let stim = Sim.Stimulus.random ~seed:(seed * 3) ~cycles:120
          ~toggle_probability:0.4 (Sim.Stimulus.inputs_of d) in
      match
        Sim.Equivalence.check ~reference:d ~dut:converted
          ~reference_clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk")
          ~dut_clocks:(Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ())
          ~stimulus:stim ()
      with
      | Sim.Equivalence.Equivalent { shift } ->
        check Alcotest.int "zero latency shift" 0 shift
      | Sim.Equivalence.Mismatch m ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m))
    [21; 22; 23; 24]

let test_convert_rejects_latch_input () =
  let b = B.create ~name:"bad" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "l" "LATH_X1" [("E", clk); ("D", a); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let asg = A.solve d in
  try
    ignore (Phase3.Convert.to_three_phase d asg);
    Alcotest.fail "expected Invalid_argument for existing latch"
  with Invalid_argument _ -> ()

(* --- Master-slave --- *)

let test_master_slave () =
  let d = Circuits.Generator.synthesize (gen_spec 31) in
  let ms = Phase3.Master_slave.convert d in
  let s_ff = Netlist.Stats.compute d and s_ms = Netlist.Stats.compute ms in
  check Alcotest.int "exactly 2x registers"
    (2 * s_ff.Netlist.Stats.flip_flops) s_ms.Netlist.Stats.latches;
  check Alcotest.int "icgs preserved" s_ff.Netlist.Stats.clock_gates
    s_ms.Netlist.Stats.clock_gates;
  let stim = Sim.Stimulus.random ~seed:77 ~cycles:120 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  match Sim.Equivalence.check ~reference:d ~dut:ms ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:stim () with
  | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "master-slave mismatch: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

(* --- Retime --- *)

let retime_test_design () =
  (* rA is adjacent to both rB and rC in the FF graph, so the optimum
     pairs rA and keeps rB/rC single; rA's inserted p2 latch then sits in
     front of a private buffer chain with clear forward-move benefit
     (buffers preserve the reset value, so moves stay legal) *)
  let b = B.create ~name:"rt" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let qa = B.fresh_net b "qa" in
  let qb = B.fresh_net b "qb" in
  let qc = B.fresh_net b "qc" in
  let da = B.fresh_net b "da" in
  ignore (B.add_cell b "gin" "BUF_X2" [("A", qb); ("Z", da)]);
  ignore (B.add_cell b "rA" "DFF_X1" [("CK", clk); ("D", da); ("Q", qa)]);
  let rec chain src k =
    if k = 0 then src
    else begin
      let n = B.fresh_net b (Printf.sprintf "ch%d" k) in
      ignore (B.add_cell b (Printf.sprintf "cb%d" k) "BUF_X2" [("A", src); ("Z", n)]);
      chain n (k - 1)
    end
  in
  let tail = chain qa 8 in
  ignore (B.add_cell b "rB" "DFF_X1" [("CK", clk); ("D", tail); ("Q", qb)]);
  ignore (B.add_cell b "rC" "DFF_X1" [("CK", clk); ("D", tail); ("Q", qc)]);
  B.add_output b "y" qc;
  B.freeze b

let test_retime_moves_and_preserves () =
  let d = retime_test_design () in
  let asg = A.solve d in
  let converted = Phase3.Convert.to_three_phase d asg in
  let retimed, stats = Phase3.Retime.run converted in
  check Alcotest.bool "some moves happen" true (stats.Phase3.Retime.moves > 0);
  (match Netlist.Check.validate retimed with
   | Ok () -> ()
   | Error es -> Alcotest.failf "retimed invalid: %s" (String.concat ";" es));
  check_phase_adjacency retimed;
  (* stream equivalence of the retimed result (autonomous design: the
     stimulus stream is empty but still drives the clocks) *)
  let stim = Sim.Stimulus.random ~seed:5 ~cycles:120 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  (match Sim.Equivalence.check ~reference:d ~dut:retimed
           ~reference_clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk")
           ~dut_clocks:(Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ())
           ~stimulus:stim () with
   | Sim.Equivalence.Equivalent _ -> ()
   | Sim.Equivalence.Mismatch m ->
     Alcotest.failf "retime broke streams: %s"
       (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m));
  (* retiming balanced the long cone: the worst of (in, out) delay around
     moved latches shrank, visible as improved setup slack at short period *)
  let clocks = Sim.Clock_spec.three_phase ~period:0.4 ~p1:"p1" ~p2:"p2" ~p3:"p3" () in
  let before = (Sta.Smo.check converted ~clocks).Sta.Smo.worst_setup_slack in
  let after = (Sta.Smo.check retimed ~clocks).Sta.Smo.worst_setup_slack in
  check Alcotest.bool "setup slack improved" true (after > before)

(* --- Clock gating --- *)

let test_clock_gating_structures () =
  let d = Circuits.Generator.synthesize (gen_spec ~gated:0.6 41) in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.verify_equivalence = false } in
  let r = Phase3.Flow.run ~config d in
  (match r.Phase3.Flow.cg_stats with
   | None -> Alcotest.fail "clock gating should run"
   | Some s ->
     check Alcotest.bool "some p2 latches got gated" true
       (s.Phase3.Clock_gating.gated_common_enable > 0
        || s.Phase3.Clock_gating.ddcg_gated > 0
        || s.Phase3.Clock_gating.m2_replaced > 0));
  (* the M1 cells exist in the final design when common-enable fired *)
  let final = r.Phase3.Flow.final in
  let styles =
    List.filter_map
      (fun i ->
        match (D.cell final i).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Clock_gate { style; _ } -> Some style
        | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
        | Cell_lib.Cell.Latch _ -> None)
      (D.clock_gate_insts final)
  in
  check Alcotest.bool "flow produced clock gates" true (styles <> [])

let test_flow_end_to_end_sweep () =
  (* the umbrella property: full flow on a spread of generated circuits
     verifies equivalence internally and passes SMO *)
  List.iter
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let config = Phase3.Flow.default_config ~period:1.0 in
      let r = Phase3.Flow.run ~config d in
      check Alcotest.bool
        (Printf.sprintf "seed %d timing" seed) true (Sta.Smo.ok r.Phase3.Flow.timing);
      check_phase_adjacency r.Phase3.Flow.final)
    [51; 52; 53; 54; 55]

let test_flow_rejects_invalid_input () =
  let b = B.create ~name:"floating" ~library:lib in
  let n = B.fresh_net b "n" in
  ignore (B.add_cell b "i" "INV_X1" [("A", n); ("ZN", B.fresh_net b "o")]);
  B.add_output b "y" n;
  let d = B.freeze b in
  try
    ignore (Phase3.Flow.run ~config:(Phase3.Flow.default_config ~period:1.0) d);
    Alcotest.fail "expected Flow_error"
  with Phase3.Flow.Flow_error _ -> ()

(* A loop g1 -> g2 -> g1 read from outside by d0, which sits before it
   in instance order: the refusal must name the 2-instance loop, not
   the instance hanging off it. *)
let test_flow_reports_comb_cycle () =
  let b = B.create ~name:"cyc" ~library:lib in
  let a = B.add_input b "a" in
  let n1 = B.fresh_net b "n1" in
  let n2 = B.fresh_net b "n2" in
  let y = B.fresh_net b "y" in
  ignore (B.add_cell b "d0" "INV_X1" [("A", n1); ("ZN", y)]);
  ignore (B.add_cell b "g1" "NAND2_X1" [("A1", a); ("A2", n2); ("ZN", n1)]);
  ignore (B.add_cell b "g2" "INV_X1" [("A", n1); ("ZN", n2)]);
  B.add_output b "y" y;
  let d = B.freeze b in
  match Phase3.Flow.run ~config:(Phase3.Flow.default_config ~period:1.0) d with
  | _ -> Alcotest.fail "expected Flow_error"
  | exception Phase3.Flow.Flow_error msg ->
    let has affix = Astring.String.is_infix ~affix msg in
    check Alcotest.bool ("cycle size in: " ^ msg) true (has "2 instances");
    check Alcotest.bool ("loop instance named in: " ^ msg) true
      (has "g1" || has "g2");
    check Alcotest.bool ("d0 not named in: " ^ msg) false (has "d0")

(* a verification stream too short to compare any cycle stops the flow
   with a Flow_error naming the equivalence stage, before any work *)
let test_flow_refuses_short_verification () =
  let d = Circuits.Generator.synthesize (gen_spec 51) in
  let config cycles =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.verify_cycles = cycles }
  in
  List.iter
    (fun cycles ->
      match Phase3.Flow.run ~config:(config cycles) d with
      | _ -> Alcotest.failf "verify_cycles %d accepted" cycles
      | exception Phase3.Flow.Flow_error msg ->
        check Alcotest.bool ("stage named in: " ^ msg) true
          (Astring.String.is_infix ~affix:"equivalence" msg))
    [0; 8; 9; 10];
  let r = Phase3.Flow.run ~config:(config 11) d in
  check Alcotest.bool "11 cycles verify" true
    (match r.Phase3.Flow.equivalence with
     | Some (Sim.Equivalence.Equivalent _) -> true
     | Some (Sim.Equivalence.Mismatch _) | None -> false);
  (* without the check the stream length does not matter *)
  ignore
    (Phase3.Flow.run
       ~config:{ (config 0) with Phase3.Flow.verify_equivalence = false }
       d)

(* a clock period that is not positive and finite stops the flow with a
   Flow_error naming the period, before any stage runs *)
let test_flow_refuses_bad_period () =
  let d = Circuits.Linear_pipeline.make ~width:2 ~stages:3 () in
  List.iter
    (fun period ->
      match Phase3.Flow.run ~config:(Phase3.Flow.default_config ~period) d with
      | _ -> Alcotest.failf "period %g accepted" period
      | exception Phase3.Flow.Flow_error msg ->
        check Alcotest.bool ("period named in: " ^ msg) true
          (Astring.String.is_infix ~affix:"period" msg))
    [0.0; -1.0; Float.nan; Float.infinity]

(* --- Pipeline closed form --- *)

let test_pipeline_closed_form () =
  check Alcotest.int "0 stages" 0 (Phase3.Pipeline.minimum_inserted_stages 0);
  check Alcotest.int "1 stage" 1 (Phase3.Pipeline.minimum_inserted_stages 1);
  check Alcotest.int "2 stages" 1 (Phase3.Pipeline.minimum_inserted_stages 2);
  check Alcotest.int "5 stages" 3 (Phase3.Pipeline.minimum_inserted_stages 5);
  check Alcotest.int "expected latches" 24
    (Phase3.Pipeline.expected_latches ~stages:4 ~width:4)

let prop_pipeline_matches_solver =
  QCheck.Test.make ~name:"pipeline closed form = solver optimum" ~count:12
    QCheck.(pair (int_range 1 4) (int_range 2 8))
    (fun (width, stages) ->
      let d = Circuits.Linear_pipeline.make ~width ~stages () in
      let asg = A.solve d in
      A.total_latches asg = Phase3.Pipeline.expected_latches ~stages ~width)

let suite =
  [ Alcotest.test_case "assignment: chain optimum" `Quick test_assignment_chain;
    Alcotest.test_case "assignment: self loop pairs" `Quick test_assignment_self_loop_forced;
    Alcotest.test_case "assignment: input latch economics" `Quick test_assignment_pi_latch;
    Alcotest.test_case "assignment: solvers agree" `Quick test_assignment_solvers_agree;
    Alcotest.test_case "assignment: latch formula" `Quick test_total_latches_formula;
    Alcotest.test_case "convert: structural invariants" `Quick test_convert_invariants;
    Alcotest.test_case "convert: stream equivalence" `Quick test_convert_preserves_streams;
    Alcotest.test_case "convert: rejects latch input" `Quick test_convert_rejects_latch_input;
    Alcotest.test_case "master-slave baseline" `Quick test_master_slave;
    Alcotest.test_case "retime: moves, preserves, improves" `Quick test_retime_moves_and_preserves;
    Alcotest.test_case "clock gating structures" `Quick test_clock_gating_structures;
    Alcotest.test_case "flow end-to-end sweep" `Slow test_flow_end_to_end_sweep;
    Alcotest.test_case "flow rejects invalid input" `Quick test_flow_rejects_invalid_input;
    Alcotest.test_case "flow refuses a short verification stream" `Quick
      test_flow_refuses_short_verification;
    Alcotest.test_case "flow refuses a non-positive period" `Quick
      test_flow_refuses_bad_period;
    Alcotest.test_case "flow names the combinational cycle" `Quick
      test_flow_reports_comb_cycle;
    Alcotest.test_case "pipeline closed form" `Quick test_pipeline_closed_form;
    QCheck_alcotest.to_alcotest prop_pipeline_matches_solver ]

(* --- resettable registers through the whole flow --- *)

let reset_design () =
  let b = B.create ~name:"rstflow" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let rn = B.add_input b "rn" in
  let a = B.add_input b "a" in
  (* resettable pipeline with feedback *)
  let q0 = B.fresh_net b "q0" in
  let q1 = B.fresh_net b "q1" in
  let q2 = B.fresh_net b "q2" in
  let d0 = Netlist.Gates.emit_fresh b Netlist.Gates.Xor [a; q2] ~prefix:"d0" in
  ignore (B.add_cell b "r0" "DFFR_X1" [("CK", clk); ("D", d0); ("Q", q0); ("RN", rn)]);
  let d1 = Netlist.Gates.emit_fresh b Netlist.Gates.Not [q0] ~prefix:"d1" in
  ignore (B.add_cell b "r1" "DFFR_X1" [("CK", clk); ("D", d1); ("Q", q1); ("RN", rn)]);
  let d2 = Netlist.Gates.emit_fresh b Netlist.Gates.And [q1; q0] ~prefix:"d2" in
  ignore (B.add_cell b "r2" "DFFR_X1" [("CK", clk); ("D", d2); ("Q", q2); ("RN", rn)]);
  B.add_output b "y" q2;
  B.freeze b

let test_flow_with_reset_registers () =
  let d = reset_design () in
  let config = Phase3.Flow.default_config ~period:1.0 in
  (* the flow's internal equivalence check streams random values on rn
     too, so matching behaviour under arbitrary reset activity is part of
     the pass criterion *)
  let r = Phase3.Flow.run ~config d in
  let final = r.Phase3.Flow.final in
  (* every latch that replaced a DFFR carries the reset pin *)
  List.iter
    (fun i ->
      match (D.cell final i).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Latch { reset_pin; _ } ->
        check Alcotest.bool
          (Printf.sprintf "%s has reset" (D.inst_name final i))
          true (reset_pin <> None)
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
      | Cell_lib.Cell.Clock_gate _ -> ())
    (D.sequential_insts final)

let test_master_slave_with_reset () =
  let d = reset_design () in
  let ms = Phase3.Master_slave.convert d in
  let stim = Sim.Stimulus.random ~seed:13 ~cycles:120 ~toggle_probability:0.3
      (Sim.Stimulus.inputs_of d) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  match Sim.Equivalence.check ~reference:d ~dut:ms ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:stim () with
  | Sim.Equivalence.Equivalent _ -> ()
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "reset M-S mismatch: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

let suite =
  suite
  @ [ Alcotest.test_case "flow with reset registers" `Quick
        test_flow_with_reset_registers;
      Alcotest.test_case "master-slave with reset" `Quick
        test_master_slave_with_reset ]

(* --- pulsed-latch baseline --- *)

let test_pulsed_latch () =
  let d = Circuits.Generator.synthesize (gen_spec 61) in
  let pl = Phase3.Pulsed_latch.convert d in
  let s_ff = Netlist.Stats.compute d and s_pl = Netlist.Stats.compute pl in
  check Alcotest.int "register count unchanged" s_ff.Netlist.Stats.registers
    s_pl.Netlist.Stats.registers;
  check Alcotest.bool "sequential area shrinks" true
    (s_pl.Netlist.Stats.seq_area < s_ff.Netlist.Stats.seq_area);
  let stim = Sim.Stimulus.random ~seed:91 ~cycles:120 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  (match Sim.Equivalence.check ~reference:d ~dut:pl ~reference_clocks:clocks
           ~dut_clocks:clocks ~stimulus:stim () with
   | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
   | Sim.Equivalence.Mismatch m ->
     Alcotest.failf "pulsed-latch mismatch: %s"
       (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m));
  (* the hold exposure: at equal skew, the pulsed design needs more hold
     buffers than the flip-flop original *)
  let _, ff_hold = Sta.Hold_fix.run ~skew:0.05 d ~clocks in
  let _, pl_hold =
    Sta.Hold_fix.run ~skew:0.05
      ~hold_margin:Phase3.Pulsed_latch.hold_margin pl ~clocks
  in
  check Alcotest.bool "pulsed needs more hold padding" true
    (pl_hold.Sta.Hold_fix.buffers_added >= ff_hold.Sta.Hold_fix.buffers_added)

let suite =
  suite
  @ [ Alcotest.test_case "pulsed-latch baseline" `Quick test_pulsed_latch ]

(* --- backward retiming --- *)

let test_backward_retime () =
  (* one pair whose p2 latch sits at the head of a long buffer chain:
     walking it into the chain balances the halves, so retiming must act *)
  let b = B.create ~name:"bwd" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let qa = B.fresh_net b "qa" in
  let qb = B.fresh_net b "qb" in
  let da = B.fresh_net b "da" in
  ignore (B.add_cell b "rA" "DFF_X1" [("CK", clk); ("D", da); ("Q", qa)]);
  let rec chain src k =
    if k = 0 then src
    else begin
      let n = B.fresh_net b (Printf.sprintf "bw%d" k) in
      ignore (B.add_cell b (Printf.sprintf "bb%d" k) "BUF_X2" [("A", src); ("Z", n)]);
      chain n (k - 1)
    end
  in
  let tail = chain qa 8 in
  (* rA's pair is forced — not tie-broken — by its combinational
     self-loop through the chain; [qa] keeps its single reader so the
     inserted p2 latch stays movable *)
  ignore (B.add_cell b "gin" "AND2_X1" [("A1", qb); ("A2", tail); ("Z", da)]);
  ignore (B.add_cell b "rB" "DFF_X1" [("CK", clk); ("D", tail); ("Q", qb)]);
  B.add_output b "y" qb;
  let d = B.freeze b in
  let asg = A.solve d in
  let converted = Phase3.Convert.to_three_phase d asg in
  let retimed, stats = Phase3.Retime.run converted in
  check Alcotest.bool "retiming acted" true (stats.Phase3.Retime.moves > 0);
  (match Netlist.Check.validate retimed with
   | Ok () -> ()
   | Error es -> Alcotest.failf "invalid: %s" (String.concat ";" es));
  check_phase_adjacency retimed;
  let stim = Sim.Stimulus.random ~seed:3 ~cycles:100 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  match Sim.Equivalence.check ~reference:d ~dut:retimed
          ~reference_clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk")
          ~dut_clocks:(Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ())
          ~stimulus:stim () with
  | Sim.Equivalence.Equivalent _ -> ()
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "backward retime broke streams: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

let suite =
  suite @ [ Alcotest.test_case "backward retiming" `Quick test_backward_retime ]

let test_flow_with_optimize () =
  let d = Circuits.Generator.synthesize (gen_spec 71) in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.optimize = true } in
  (* equivalence is checked inside the flow, after optimisation *)
  let r = Phase3.Flow.run ~config d in
  check Alcotest.bool "timing holds after optimize" true
    (Sta.Smo.ok r.Phase3.Flow.timing)

let suite =
  suite @ [ Alcotest.test_case "flow with optimize" `Quick test_flow_with_optimize ]

(* --- input-port latches --- *)

let test_pi_latch_materialised () =
  (* an input driving an isolated register: if the solver keeps the
     register single, the port must grow a p2 latch; either way the
     converted design is equivalent *)
  let b = B.create ~name:"pil" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let n = B.fresh_net b "n" in
  ignore (B.add_cell b "i" "INV_X1" [("A", a); ("ZN", n)]);
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", n); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let asg = A.solve ~solver:`Ilp d in
  let converted = Phase3.Convert.to_three_phase d asg in
  let has_port_latch =
    List.exists
      (fun i ->
        String.equal (D.inst_name converted i) ("a" ^ Phase3.Convert.p2_suffix))
      (D.sequential_insts converted)
  in
  check Alcotest.bool "port latch present iff assignment says so"
    (asg.A.pi_latches <> []) has_port_latch;
  let stim = Sim.Stimulus.random ~seed:8 ~cycles:80 ~toggle_probability:0.5 ["a"] in
  match Sim.Equivalence.check ~reference:d ~dut:converted
          ~reference_clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk")
          ~dut_clocks:(Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ())
          ~stimulus:stim () with
  | Sim.Equivalence.Equivalent _ -> ()
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "pi-latch conversion mismatch: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

(* --- DDCG behaviour --- *)

let test_ddcg_stops_quiet_clocks () =
  (* a p3 pair whose data is frozen: with DDCG the gated p2 stops
     toggling once the design settles *)
  let b = B.create ~name:"dq" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  (* r0 self-loops (pair), feeding r1 which also pairs via adjacency to
     r0 and r2; hold a constant stream so data goes quiet *)
  let q0 = B.fresh_net b "q0" in
  let d0 = Netlist.Gates.emit_fresh b Netlist.Gates.And [q0; a] ~prefix:"d0" in
  ignore (B.add_cell b "r0" "DFF_X1" [("CK", clk); ("D", d0); ("Q", q0)]);
  let q1 = B.fresh_net b "q1" in
  let d1 = Netlist.Gates.emit_fresh b Netlist.Gates.Or [q0; a] ~prefix:"d1" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", d1); ("Q", q1)]);
  B.add_output b "y" q1;
  let d = B.freeze b in
  let cg = { Phase3.Clock_gating.default_options with
             Phase3.Clock_gating.common_enable = false;
             m2_latch_removal = false;
             ddcg = true;
             ddcg_threshold = 0.5 (* aggressive so the quiet pair qualifies *) }
  in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.clock_gating = cg; retime = false } in
  let r = Phase3.Flow.run ~config d in
  (match r.Phase3.Flow.cg_stats with
   | Some s when s.Phase3.Clock_gating.ddcg_gated > 0 -> ()
   | Some _ | None -> Alcotest.fail "expected a DDCG-gated latch");
  (* drive constant inputs; the ddcg gated-clock net must go quiet while
     the free p2 keeps toggling *)
  let final = r.Phase3.Flow.final in
  let clocks = Phase3.Flow.clocks_of config in
  let engine = Sim.Engine.create final ~clocks in
  for _ = 1 to 20 do
    ignore (Sim.Engine.run_cycle engine [("a", Sim.Logic.L0)])
  done;
  let toggles_before = Array.copy (Sim.Engine.toggles engine) in
  for _ = 1 to 20 do
    ignore (Sim.Engine.run_cycle engine [("a", Sim.Logic.L0)])
  done;
  let toggles_after = Sim.Engine.toggles engine in
  let ddcg_net =
    let rec find k =
      if k >= Netlist.Design.num_nets final then None
      else if Astring.String.is_prefix ~affix:"ddcg"
                (Netlist.Design.net_name final k)
              && Astring.String.is_suffix ~affix:"gck"
                   (Netlist.Design.net_name final k)
      then Some k
      else find (k + 1)
    in
    find 0
  in
  (match ddcg_net with
   | Some net ->
     check Alcotest.int "gated p2 silent on quiet data" 0
       (toggles_after.(net) - toggles_before.(net))
   | None -> Alcotest.fail "no ddcg gated-clock net found");
  let p2 = Option.get (Netlist.Design.find_input final "p2") in
  check Alcotest.int "free p2 still toggles" 40
    (toggles_after.(p2) - toggles_before.(p2))

let suite =
  suite
  @ [ Alcotest.test_case "input-port latch materialised" `Quick
        test_pi_latch_materialised;
      Alcotest.test_case "ddcg stops quiet clocks" `Quick
        test_ddcg_stops_quiet_clocks ]

(* --- the flow's equivalence check --- *)

let no_clock_gating =
  { Phase3.Clock_gating.default_options with
    Phase3.Clock_gating.common_enable = false;
    ddcg = false;
    m2_latch_removal = false }

(* activity_cycles < 1 with any clock-gating option on stops the flow
   with a Flow_error naming the clock-gating stage, before any stage *)
let test_flow_refuses_short_activity () =
  let d = Circuits.Generator.synthesize (gen_spec 52) in
  let config cycles =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.activity_cycles = cycles }
  in
  List.iter
    (fun cycles ->
      match Phase3.Flow.run ~config:(config cycles) d with
      | _ -> Alcotest.failf "activity_cycles %d accepted" cycles
      | exception Phase3.Flow.Flow_error msg ->
        check Alcotest.bool ("stage named in: " ^ msg) true
          (Astring.String.is_infix ~affix:"clock_gating" msg))
    [0; -1];
  (* without clock gating no activity is simulated *)
  ignore
    (Phase3.Flow.run
       ~config:{ (config (-1)) with Phase3.Flow.clock_gating = no_clock_gating }
       d)

(* the flow's one draw: 63 lanes, long enough for the profile and the
   check, lane 0 the list stream of seed activity_seed at rate 0.25 *)
let test_flow_equivalence_lane0 () =
  let d = Circuits.Generator.synthesize (gen_spec 53) in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let p = Phase3.Flow.draw config d in
  check Alcotest.int "lanes" Sim.Kernel.max_lanes p.Sim.Stimulus.lanes;
  check Alcotest.int "cycles" (config.Phase3.Flow.activity_cycles + 1)
    p.Sim.Stimulus.cycles;
  check Alcotest.bool "lane 0 is the seed activity_seed stream" true
    (Sim.Stimulus.lane p 0
     = Sim.Stimulus.random ~seed:config.Phase3.Flow.activity_seed
         ~cycles:p.Sim.Stimulus.cycles ~toggle_probability:0.25
         (Sim.Stimulus.inputs_of d));
  (* the equivalence stage's cycles: the draw's prefix *)
  let check_cycles = config.Phase3.Flow.verify_cycles in
  check Alcotest.bool "the check's prefix is the seed activity_seed stream"
    true
    (Sim.Stimulus.lane (Sim.Stimulus.prefix p ~cycles:check_cycles) 0
     = Sim.Stimulus.random ~seed:config.Phase3.Flow.activity_seed
         ~cycles:check_cycles ~toggle_probability:0.25
         (Sim.Stimulus.inputs_of d))

(* p1 -> p3 swaps on s1423, checked on the equivalence stage's cycles
   of the flow's draw: r_1_21's is caught on lane 0 alone; r_2_11's
   is missed by the engine check on lane 0 and caught by the kernel
   check on another lane.  The flow runs without clock gating, lint or
   its own equivalence stage, so each mutant is checked by hand. *)
let test_packed_check_catches_more () =
  let bench = Option.get (Circuits.Suite.find "s1423") in
  let d = bench.Circuits.Suite.build () in
  let config =
    { (Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns) with
      Phase3.Flow.clock_gating = no_clock_gating;
      lint = false;
      verify_equivalence = false }
  in
  let final = (Phase3.Flow.run ~config d).Phase3.Flow.final in
  let reference_clocks =
    Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period
  in
  let dut_clocks = Phase3.Flow.clocks_of config in
  let stimulus =
    Sim.Stimulus.prefix
      (Phase3.Flow.draw
         { config with Phase3.Flow.verify_equivalence = true } d)
      ~cycles:config.Phase3.Flow.verify_cycles
  in
  let swap victim =
    let i = Option.get (D.find_inst final victim) in
    check Alcotest.(option string) (victim ^ " on p1") (Some "p1")
      (phase_of final i);
    Test_lint.retarget_enable final ~victim ~port:"p3"
  in
  let lane0 mutant =
    Sim.Equivalence.check ~reference:d ~dut:mutant ~reference_clocks
      ~dut_clocks ~stimulus:(Sim.Stimulus.lane stimulus 0) ()
  in
  (match lane0 (swap "r_1_21") with
   | Sim.Equivalence.Mismatch _ -> ()
   | Sim.Equivalence.Equivalent { shift } ->
     Alcotest.failf "lane 0 misses r_1_21's swap (shift %d)" shift);
  let mutant = swap "r_2_11" in
  (match lane0 mutant with
   | Sim.Equivalence.Equivalent { shift } ->
     check Alcotest.int "lane 0 alone: shift" 0 shift
   | Sim.Equivalence.Mismatch m ->
     Alcotest.failf "lane 0 alone now catches the mutant (%s): pin another"
       (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m));
  match
    Sim.Equivalence.check_packed ~reference:d ~dut:mutant ~reference_clocks
      ~dut_clocks ~stimulus ()
  with
  | Sim.Equivalence.Equivalent { shift } ->
    Alcotest.failf "63 lanes: equivalent at shift %d" shift
  | Sim.Equivalence.Mismatch m ->
    check Alcotest.string "first difference"
      "cycle 17 port o4 lane 42: expected 1, got 0"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

let suite =
  suite
  @ [ Alcotest.test_case "flow refuses a short activity profile" `Quick
        test_flow_refuses_short_activity;
      Alcotest.test_case "flow equivalence lane 0 is the one-lane stream"
        `Quick test_flow_equivalence_lane0;
      Alcotest.test_case "packed check catches a mutant lane 0 misses" `Quick
        test_packed_check_catches_more ]

(* --- the clock-gating stage's activity run --- *)

(* per-net toggles of a whole-design kernel of [d] on the clock-gating
   stage's draw, [cycles] long *)
let stage_toggles config d ~clocks ~cycles =
  let kernel = Sim.Kernel.create d ~clocks in
  Sim.Kernel.run kernel
    (Sim.Stimulus.draw
       ~seeds:
         (Array.init Sim.Kernel.max_lanes (fun l ->
              config.Phase3.Flow.activity_seed + l))
       ~cycles (Sim.Stimulus.Uniform 0.25) (Sim.Stimulus.inputs_of d));
  Sim.Kernel.toggles kernel

(* [retimed] gated from the activity of a whole-design kernel of it on
   the stage's draw *)
let gate_on_whole_design config retimed =
  let cycles = config.Phase3.Flow.activity_cycles in
  fst
    (Phase3.Clock_gating.run ~options:config.Phase3.Flow.clock_gating
       ~ports:config.Phase3.Flow.ports
       ~activity:
         ( stage_toggles config retimed ~clocks:(Phase3.Flow.clocks_of config)
             ~cycles,
           Sim.Kernel.max_lanes * cycles )
       retimed)

let rec has_span name nodes =
  List.exists
    (fun (n : Obs.span_node) ->
      String.equal n.Obs.node_name name || has_span name n.Obs.n_children)
    nodes

(* the stage reads its activity from a run of the input design that
   simulates only the partners of the DDCG pool's data nets, and the
   flow writes the netlist that a whole-design kernel of the retimed
   design gives.  md5 has a retimed gate in its pool; on the re-seeded
   md5 (perfbench's flow-mid draw md5-7) an activity run one cycle
   shorter reorders a DDCG group *)
let test_cone_activity_same_netlist () =
  let md5_7 =
    let spec = Circuits.Cep.md5 in
    ( "md5-7",
      1000.0 /. spec.Circuits.Generator.frequency_mhz,
      Circuits.Generator.synthesize
        { spec with
          Circuits.Generator.seed =
            (spec.Circuits.Generator.seed * 1_000_003) + (7 * 7_919) + 4 } )
  in
  let suite name =
    let bench = Option.get (Circuits.Suite.find name) in
    (name, bench.Circuits.Suite.period_ns, bench.Circuits.Suite.build ())
  in
  let gated =
    List.fold_left
      (fun gated (name, period, d) ->
        let config =
          { (Phase3.Flow.default_config ~period)
            with Phase3.Flow.verify_equivalence = false; lint = false }
        in
        let r = Phase3.Flow.run ~config d in
        check Alcotest.string name
          (Netlist_io.Verilog.write
             (gate_on_whole_design config r.Phase3.Flow.retimed))
          (Netlist_io.Verilog.write r.Phase3.Flow.final);
        gated + (Option.get r.Phase3.Flow.cg_stats).Phase3.Clock_gating.ddcg_gated)
      0
      (List.map suite [ "s1196"; "s5378"; "s13207"; "md5" ] @ [ md5_7 ])
  in
  if gated = 0 then Alcotest.fail "no DDCG latch: the comparison is empty"

(* with DDCG off nothing reads activity: the flow creates no kernel and
   draws no stimulus, and gates as with a whole-design activity run *)
let test_no_activity_run_without_ddcg () =
  let d = Circuits.Generator.synthesize (gen_spec 54) in
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.clock_gating =
        { Phase3.Clock_gating.default_options with
          Phase3.Clock_gating.ddcg = false };
      verify_equivalence = false }
  in
  Obs.reset ();
  let r = Phase3.Flow.run ~config d in
  let tree = Obs.span_tree () in
  List.iter
    (fun span ->
      if has_span span tree then Alcotest.failf "the flow recorded %s" span)
    [ "sim.kernel.create"; "sim.kernel.run"; "flow.clock_gating.activity" ];
  check Alcotest.int "stimulus words" 0 (Obs.counter_of "sim.stimulus.words");
  Obs.reset ();
  check Alcotest.string "netlist"
    (Netlist_io.Verilog.write (gate_on_whole_design config r.Phase3.Flow.retimed))
    (Netlist_io.Verilog.write r.Phase3.Flow.final)

let suite =
  suite
  @ [ Alcotest.test_case "cone activity run writes the same netlist" `Quick
        test_cone_activity_same_netlist;
      Alcotest.test_case "no activity run without DDCG" `Quick
        test_no_activity_run_without_ddcg ]

(* --- DDCG activity read from the input design --- *)

(* Over N cycles of the 3-phase design, each pool data net toggles as
   often as its partner in the flip-flop design over N + 1 cycles of the
   same draw.  For a p3 latch the equality is exact.  A retimed gate's
   count may exceed its partner's by one glitch of every lane in the
   3-phase design's create-time settle (2 toggles per lane): that settle
   precedes all stimulus, so it reads the same on every lane.  Returns
   the number of p3-latch and gate partners compared. *)
let compare_partners config d =
  let r = Phase3.Flow.run ~config d in
  let retimed = r.Phase3.Flow.retimed in
  if Sim.Stimulus.inputs_of retimed <> Sim.Stimulus.inputs_of d then
    Alcotest.failf "%s: the retimed design reads other inputs"
      d.D.design_name;
  let plan =
    Phase3.Clock_gating.plan ~options:config.Phase3.Flow.clock_gating
      ~ports:config.Phase3.Flow.ports retimed
  in
  let partners = Phase3.Clock_gating.partners plan d in
  let n = config.Phase3.Flow.activity_cycles in
  let three_phase =
    stage_toggles config retimed ~clocks:(Phase3.Flow.clocks_of config)
      ~cycles:n
  and flip_flop =
    stage_toggles config d
      ~clocks:(Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period)
      ~cycles:(n + 1)
  in
  let latches = ref 0 and gates = ref 0 in
  Array.iteri
    (fun k dn ->
      Option.iter
        (fun pn ->
          let t3 = three_phase.(dn) and tff = flip_flop.(pn) in
          let gate =
            match retimed.D.net_driver.(dn) with
            | D.Driven_by (i, _) ->
              (D.cell retimed i).Cell_lib.Cell.kind = Cell_lib.Cell.Combinational
            | D.Driven_by_input _ | D.Driven_const _ | D.Undriven -> false
          in
          incr (if gate then gates else latches);
          if not (t3 = tff || (gate && t3 = tff + (2 * Sim.Kernel.max_lanes)))
          then
            Alcotest.failf "%s: %s toggles %d times, its partner %s %d"
              d.D.design_name (D.net_name retimed dn) t3 (D.net_name d pn) tff)
        partners.(k))
    (Phase3.Clock_gating.observed plan);
  (!latches, !gates)

let partner_counts = ref (0, 0)

let prop_partner_toggles =
  QCheck.Test.make ~name:"pool nets toggle as their partners one edge later"
    ~count:25 QCheck.(int_range 0 10_000)
    (fun seed ->
      let d =
        Circuits.Generator.synthesize
          (gen_spec ~layers:[| 8; 8; 6 |] ~gated:0.3 seed)
      in
      let config =
        { (Phase3.Flow.default_config ~period:1.0) with
          Phase3.Flow.activity_cycles = 48; verify_equivalence = false;
          lint = false }
      in
      let l, g = compare_partners config d in
      let latches, gates = !partner_counts in
      partner_counts := (latches + l, gates + g);
      true)

(* the generated designs give p3-latch partners only; md5 has a retimed
   gate in its pool *)
let test_partner_toggles () =
  partner_counts := (0, 0);
  QCheck.Test.check_exn prop_partner_toggles;
  if fst !partner_counts = 0 then
    Alcotest.fail "no pool net: the comparison is empty";
  let bench = Option.get (Circuits.Suite.find "md5") in
  let config =
    { (Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns) with
      Phase3.Flow.activity_cycles = 64; verify_equivalence = false;
      lint = false }
  in
  let _, gates = compare_partners config (bench.Circuits.Suite.build ()) in
  if gates = 0 then Alcotest.fail "md5: no gate partner compared"

(* A pool net with no partner in the input design reads as never quiet:
   with every partner's toggles 0, each pool latch is gated except the
   one whose flip-flop was renamed out of the input design. *)
let test_no_partner_never_quiet () =
  let bench = Option.get (Circuits.Suite.find "s1196") in
  let d = bench.Circuits.Suite.build () in
  let config =
    { (Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns) with
      Phase3.Flow.verify_equivalence = false; lint = false }
  in
  let r = Phase3.Flow.run ~config d in
  let retimed = r.Phase3.Flow.retimed in
  let plan =
    Phase3.Clock_gating.plan ~options:config.Phase3.Flow.clock_gating
      ~ports:config.Phase3.Flow.ports retimed
  in
  let pool = Phase3.Clock_gating.observed plan in
  if Array.length pool < 2 then Alcotest.fail "s1196's pool is too small";
  (* the flip-flop behind the first pool net, under another name *)
  let victim =
    match retimed.D.net_driver.(pool.(0)) with
    | D.Driven_by (i, _) -> D.inst_name retimed i
    | D.Driven_by_input _ | D.Driven_const _ | D.Undriven ->
      Alcotest.fail "pool net without a driving instance"
  in
  let renamed =
    let rw = Netlist.Rewrite.start d in
    D.fold_insts
      (fun i () ->
        if String.equal (D.inst_name d i) victim then
          ignore
            (B.add_instance (Netlist.Rewrite.builder rw) (victim ^ "_renamed")
               (D.cell d i)
               (Array.to_list d.D.inst_conns.(i)
                |> List.map (fun (pin, n) -> (pin, Netlist.Rewrite.map_net rw n))))
        else Netlist.Rewrite.copy_inst rw i)
      d ();
    Netlist.Rewrite.finish rw
  in
  let quiet reference =
    let simulated = ref 0 in
    let activity =
      Phase3.Clock_gating.reference_activity plan reference
        ~lane_cycles:(Sim.Kernel.max_lanes * config.Phase3.Flow.activity_cycles)
        ~simulate:(fun nets ->
          simulated := Array.length nets;
          Array.make (D.num_nets reference) 0)
    in
    let gated, stats = Phase3.Clock_gating.apply plan ~activity in
    (gated, stats.Phase3.Clock_gating.ddcg_gated, !simulated)
  in
  let all_quiet, n_all, sim_all = quiet d in
  check Alcotest.int "every pool latch gated" (Array.length pool) n_all;
  check Alcotest.int "every partner simulated" (Array.length pool) sim_all;
  let one_missing, n_missing, sim_missing = quiet renamed in
  check Alcotest.int "the partnerless latch stays ungated"
    (Array.length pool - 1) n_missing;
  check Alcotest.int "its partner is not simulated" (Array.length pool - 1)
    sim_missing;
  let p2 = victim ^ Phase3.Convert.p2_suffix in
  let gck_of g =
    let i = Option.get (D.find_inst g p2) in
    D.net_name g (Option.get (D.clock_net_of g i))
  in
  check Alcotest.string "gated latch clocked by a DDCG gate" "ddcg0_gck"
    (String.sub (gck_of all_quiet) 0 9);
  check Alcotest.string "partnerless latch clocked by p2" "p2"
    (gck_of one_missing)

let suite =
  suite
  @ [ Alcotest.test_case "pool nets toggle as their partners one edge later"
        `Quick test_partner_toggles;
      Alcotest.test_case "a pool net with no partner is never quiet" `Quick
        test_no_partner_never_quiet ]

(* --- what the validate stage refuses --- *)

(* a two-register design; [extra] adds cells to the builder *)
let clocked_design ?(clocks = [ "clk" ]) extra =
  let b = B.create ~name:"v" ~library:lib in
  let clk = List.map (fun c -> B.add_input ~clock:true b c) clocks in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" and y = B.fresh_net b "y" in
  let n = extra b ~clk:(List.hd clk) ~a in
  ignore (B.add_cell b "r0" "DFF_X1" [("CK", List.hd clk); ("D", n); ("Q", q)]);
  ignore
    (B.add_cell b "r1" "DFF_X1"
       [("CK", List.nth clk (List.length clk - 1)); ("D", q); ("Q", y)]);
  B.add_output b "y" y;
  B.freeze b

let expect_flow_error ~says d =
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.verify_equivalence = false }
  in
  Obs.reset ();
  match Phase3.Flow.run ~config d with
  | _ -> Alcotest.failf "accepted: %s" says
  | exception Phase3.Flow.Flow_error msg ->
    check Alcotest.string "message" says msg;
    (* refused before any stage after validate ran *)
    check Alcotest.(list string) "executed stages" [ "flow.validate" ]
      (List.map (fun (n : Obs.span_node) -> n.Obs.node_name) (Obs.span_tree ()));
    Obs.reset ()

let test_validate_refuses_clocking () =
  expect_flow_error
    ~says:"validate stage: design v has 2 clock ports (clka, clkb); the flow \
           converts a single clock"
    (clocked_design ~clocks:[ "clka"; "clkb" ] (fun _ ~clk:_ ~a -> a));
  let and_clk =
    clocked_design (fun b ~clk ~a ->
        let n = B.fresh_net b "n" in
        ignore (B.add_cell b "g" "AND2_X1" [("A1", clk); ("A2", a); ("Z", n)]);
        n)
  in
  let says = "data logic reads clock net clk at pin A1 of g" in
  expect_flow_error ~says:("validate stage: " ^ says) and_clk;
  (* conversion refuses it by the same rule *)
  (match
     Phase3.Convert.to_three_phase and_clk
       (Phase3.Assignment.solve ~solver:`Ilp and_clk)
   with
   | _ -> Alcotest.fail "Convert accepted a clock read as data"
   | exception Invalid_argument msg ->
     check Alcotest.string "Convert's message" ("Convert: " ^ says) msg);
  expect_flow_error
    ~says:"validate stage: data logic reads clock net clk at pin A of cb"
    (clocked_design (fun b ~clk ~a ->
         ignore (B.add_cell b "cb" "CLKBUF_X4" [("A", clk)]);
         a));
  (* a clock buffer that drives a register's clock is no data read *)
  let buffered =
    clocked_design (fun b ~clk ~a ->
        let bck = B.fresh_net b "bck" and q = B.fresh_net b "qb" in
        ignore (B.add_cell b "cb" "CLKBUF_X4" [("A", clk); ("Z", bck)]);
        ignore (B.add_cell b "rb" "DFF_X1" [("CK", bck); ("D", a); ("Q", q)]);
        let n = B.fresh_net b "n" in
        ignore (B.add_cell b "g" "AND2_X1" [("A1", q); ("A2", a); ("Z", n)]);
        n)
  in
  check Alcotest.(option string) "buffered clock" None
    (Phase3.Convert.clock_read buffered)

let suite =
  suite
  @ [ Alcotest.test_case "validate refuses several clocks and clock reads"
        `Quick test_validate_refuses_clocking ]

(* --- the mutation gate of the shared reference run ---

   The flow checks equivalence on a prefix of the draw its clock-gating
   profile reads (Uniform 0.25, seeds activity_seed + l), where it once
   drew a draw of its own (Uniform 0.35, seeds activity_seed + 17 + l).
   DDCG picks latches that are quiet on the profile's draw, so that
   draw could hide a gating bug.  For each circuit and mutant kind, the
   check on the flow's draw must catch at least as many single-change
   mutants of the final design as the check on the old draw. *)

(* [final] with instance [i]'s pins rewired by [override] *)
let mutate final i override =
  let rw = Netlist.Rewrite.start final in
  List.iter
    (fun j ->
      if j = i then Netlist.Rewrite.copy_inst ~override:(override rw) rw j
      else Netlist.Rewrite.copy_inst rw j)
    (D.insts final);
  Netlist.Rewrite.finish rw

let enable_pin d i =
  match (D.cell d i).Cell_lib.Cell.kind with
  | Cell_lib.Cell.Latch { enable_pin; _ } -> Some enable_pin
  | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
  | Cell_lib.Cell.Clock_gate _ -> None

(* the four kinds, each a list of mutants of [final]: an inserted p2
   latch made transparent (E tied to 1), a latch on the p1 port moved
   to p3, one on the p3 port moved to p1 (latches behind a clock gate
   stay), and a DDCG comparator whose first input reads its second
   (stuck at 0) *)
let mutants (ports : Phase3.Convert.clock_ports) final =
  let latches = List.filter (fun i -> enable_pin final i <> None) (D.insts final) in
  let moved ~from ~port_to =
    let port = Option.get (D.find_input final port_to) in
    List.filter_map
      (fun i ->
        if D.clock_net_of final i = D.find_input final from
        then
          Some
            (mutate final i (fun rw ->
                 [(Option.get (enable_pin final i), Netlist.Rewrite.map_net rw port)]))
        else None)
      latches
  in
  let bypass =
    List.filter_map
      (fun i ->
        if Phase3.Convert.is_inserted_p2 final i then
          Some
            (mutate final i (fun rw ->
                 [ ( Option.get (enable_pin final i),
                     Netlist.Builder.const (Netlist.Rewrite.builder rw) true ) ]))
        else None)
      latches
  in
  let comparators =
    List.filter_map
      (fun i ->
        let name = D.inst_name final i in
        match Cell_lib.Cell.input_pins (D.cell final i) with
        | first :: second :: _
          when Astring.String.is_prefix ~affix:"ddcg" name
               && Astring.String.is_infix ~affix:"_cmp" name ->
          let reads = D.pin_net final i second.Cell_lib.Cell.pin_name in
          Some
            (mutate final i (fun rw ->
                 [(first.Cell_lib.Cell.pin_name, Netlist.Rewrite.map_net rw reads)]))
        | _ -> None)
      (D.insts final)
  in
  [ ("p2 bypass", bypass);
    ("p1->p3", moved ~from:ports.Phase3.Convert.p1 ~port_to:ports.Phase3.Convert.p3);
    ("p3->p1", moved ~from:ports.Phase3.Convert.p3 ~port_to:ports.Phase3.Convert.p1);
    ("ddcg comparator", comparators) ]

let test_mutation_gate () =
  List.iter
    (fun name ->
      let bench = Option.get (Circuits.Suite.find name) in
      let d = bench.Circuits.Suite.build () in
      let config =
        Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns
      in
      let final = (Phase3.Flow.run ~config d).Phase3.Flow.final in
      let cycles = config.Phase3.Flow.verify_cycles in
      let old_draw =
        Sim.Stimulus.draw
          ~seeds:
            (Array.init Sim.Kernel.max_lanes (fun l ->
                 config.Phase3.Flow.activity_seed + 17 + l))
          ~cycles (Sim.Stimulus.Uniform 0.35) (Sim.Stimulus.inputs_of d)
      in
      let flow_draw = Sim.Stimulus.prefix (Phase3.Flow.draw config d) ~cycles in
      let reference_clocks =
        Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period
      in
      let dut_clocks = Phase3.Flow.clocks_of config in
      (* check_packed's two samplings and verdict, the reference sampled
         once per draw; a mutant that does not settle is caught too *)
      let catches draw =
        let reference = Sim.Equivalence.sample d ~clocks:reference_clocks draw in
        fun mutant ->
          match
            Sim.Equivalence.verdict ~reference
              ~dut:
                (Sim.Equivalence.sample ~ports:reference.Sim.Equivalence.ports
                   mutant ~clocks:dut_clocks draw)
          with
          | Sim.Equivalence.Mismatch _ -> true
          | Sim.Equivalence.Equivalent _ -> false
          | exception Sim.Kernel.Oscillation _ -> true
      in
      let on_old = catches old_draw and on_flow = catches flow_draw in
      let caught =
        List.fold_left
          (fun caught (kind, ms) ->
            let count catches = List.length (List.filter catches ms) in
            let old_n = count on_old and flow_n = count on_flow in
            if flow_n < old_n then
              Alcotest.failf
                "%s, %s: the flow's draw catches %d of %d mutants, the old \
                 draw %d"
                name kind flow_n (List.length ms) old_n;
            caught + flow_n)
          0
          (mutants config.Phase3.Flow.ports final)
      in
      if caught = 0 then Alcotest.failf "%s: no mutant caught" name)
    ["s1196"; "s1238"; "s1423"; "s1488"]

let suite =
  suite
  @ [ Alcotest.test_case "mutation gate: the flow's draw catches no fewer"
        `Quick test_mutation_gate ]

(* --- one run of the input design serves clock gating and equivalence --- *)

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

let rec span_calls name nodes =
  List.fold_left
    (fun acc (n : Obs.span_node) ->
      acc
      + (if String.equal n.Obs.node_name name then n.Obs.n_calls else 0)
      + span_calls name n.Obs.n_children)
    0 nodes

(* the verdict and the words compared when the reference is an
   outputs-only kernel of [d] on the equivalence stage's cycles *)
let outputs_only_verdict config d final =
  let stimulus =
    Sim.Stimulus.prefix (Phase3.Flow.draw config d)
      ~cycles:config.Phase3.Flow.verify_cycles
  in
  Obs.reset ();
  let reference =
    Sim.Equivalence.sample d
      ~clocks:(Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period)
      stimulus
  in
  let verdict =
    Sim.Equivalence.verdict ~reference
      ~dut:
        (Sim.Equivalence.sample ~ports:reference.Sim.Equivalence.ports final
           ~clocks:(Phase3.Flow.clocks_of config) stimulus)
  in
  let compared = counter "sim.equivalence.compared" in
  Obs.reset ();
  (verdict, compared)

(* Flow.run writes the same netlist with verification on and off, on the
   shared path (activity_cycles + 1 >= verify_cycles: the profile's run
   samples the reference) and on the other (the equivalence stage runs
   the reference itself).  The stage runs one kernel when the profile
   sampled the reference and two otherwise, and its verdict and words
   compared are those of an outputs-only reference kernel. *)
let prop_verification_keeps_netlist =
  QCheck.Test.make ~name:"verification never changes the netlist" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      List.iter
        (fun (path, activity_cycles) ->
          let config =
            { (Phase3.Flow.default_config ~period:1.0) with
              Phase3.Flow.activity_cycles; verify_cycles = 24; lint = false }
          in
          let unverified =
            Phase3.Flow.run
              ~config:{ config with Phase3.Flow.verify_equivalence = false } d
          in
          Obs.reset ();
          let r = Phase3.Flow.run ~config d in
          let tree = Obs.span_tree () in
          let compared = counter "sim.equivalence.compared" in
          Obs.reset ();
          let label = Printf.sprintf "seed %d, %s path" seed path in
          check Alcotest.string (label ^ ": netlist")
            (Netlist_io.Verilog.write unverified.Phase3.Flow.final)
            (Netlist_io.Verilog.write r.Phase3.Flow.final);
          let equivalence =
            List.filter
              (fun (n : Obs.span_node) -> String.equal n.Obs.node_name "flow.equivalence")
              tree
          in
          let profiled = has_span "flow.clock_gating.activity" tree in
          check Alcotest.int (label ^ ": kernel runs in the equivalence stage")
            (if profiled && path = "shared" then 1 else 2)
            (span_calls "sim.kernel.run" equivalence);
          let verdict, expected = outputs_only_verdict config d r.Phase3.Flow.final in
          check Alcotest.bool (label ^ ": verdict") true
            (r.Phase3.Flow.equivalence = Some verdict);
          check Alcotest.int (label ^ ": words compared") expected compared)
        [ ("shared", 40); ("own", 12) ];
      true)

(* The samples of a kernel that observes more than the outputs, over
   more cycles (the profile's run), give the verdict, shift and words
   compared of an outputs-only kernel on the check's cycles, for an
   equivalent design and for s1423's r_2_11 p1 -> p3 mutant. *)
let test_profile_samples_same_verdict () =
  let bench = Option.get (Circuits.Suite.find "s1423") in
  let d = bench.Circuits.Suite.build () in
  let config =
    { (Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns) with
      Phase3.Flow.verify_equivalence = false; lint = false }
  in
  let final = (Phase3.Flow.run ~config d).Phase3.Flow.final in
  let config = { config with Phase3.Flow.verify_equivalence = true } in
  let mutant = Test_lint.retarget_enable final ~victim:"r_2_11" ~port:"p3" in
  let draw = Phase3.Flow.draw config d in
  let profile_samples =
    let ports, outputs = Sim.Equivalence.outputs d in
    let registers =
      Array.of_list (List.filter_map (D.q_net_of d) (D.sequential_insts d))
    in
    let kernel =
      Sim.Kernel.create ~observe:(Array.append registers outputs) d
        ~clocks:(Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period)
    in
    Sim.Equivalence.samples ~ports ~cycles:draw.Sim.Stimulus.cycles
      (Sim.Kernel.run_sampled kernel draw outputs)
  in
  check Alcotest.bool "the profile runs longer than the check" true
    (profile_samples.Sim.Equivalence.cycles > config.Phase3.Flow.verify_cycles);
  List.iter
    (fun (label, dut) ->
      let expected, expected_compared = outputs_only_verdict config d dut in
      let stimulus =
        Sim.Stimulus.prefix draw ~cycles:config.Phase3.Flow.verify_cycles
      in
      Obs.reset ();
      let got =
        Sim.Equivalence.verdict ~reference:profile_samples
          ~dut:
            (Sim.Equivalence.sample ~ports:profile_samples.Sim.Equivalence.ports
               dut ~clocks:(Phase3.Flow.clocks_of config) stimulus)
      in
      let compared = counter "sim.equivalence.compared" in
      Obs.reset ();
      let show v =
        match v with
        | Sim.Equivalence.Equivalent { shift } -> Printf.sprintf "shift %d" shift
        | Sim.Equivalence.Mismatch m ->
          Format.asprintf "%a" Sim.Equivalence.pp_mismatch m
      in
      check Alcotest.string (label ^ ": verdict") (show expected) (show got);
      check Alcotest.int (label ^ ": words compared") expected_compared compared)
    [ ("final", final); ("r_2_11 mutant", mutant) ]

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest prop_verification_keeps_netlist;
      Alcotest.test_case "profile samples give the outputs-only verdict" `Quick
        test_profile_samples_same_verdict ]
