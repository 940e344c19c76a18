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

(* lane 0 of the stage's 63-lane draw is the list stream of seed
   activity_seed + 17 *)
let test_flow_equivalence_lane0 () =
  let d = Circuits.Generator.synthesize (gen_spec 53) in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let p = Phase3.Flow.equivalence_stimulus config d in
  check Alcotest.int "lanes" Sim.Kernel.max_lanes p.Sim.Stimulus.lanes;
  check Alcotest.int "cycles" config.Phase3.Flow.verify_cycles
    p.Sim.Stimulus.cycles;
  check Alcotest.bool "lane 0 is the seed activity_seed + 17 stream" true
    (Sim.Stimulus.lane p 0
     = Sim.Stimulus.random ~seed:(config.Phase3.Flow.activity_seed + 17)
         ~cycles:config.Phase3.Flow.verify_cycles ~toggle_probability:0.35
         (Sim.Stimulus.inputs_of d))

(* A p1 -> p3 swap on s1423 that lane 0 alone misses: the engine check
   on lane 0 calls it equivalent, the kernel check on the stage's
   63-lane draw catches it on another lane.  The flow runs without
   clock gating, lint or its own equivalence stage, so the mutant is
   checked by hand. *)
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
  let victim = "r_1_21" in
  let i = Option.get (D.find_inst final victim) in
  check Alcotest.(option string) "victim latch on p1" (Some "p1")
    (phase_of final i);
  let mutant = Test_lint.retarget_enable final ~victim ~port:"p3" in
  let reference_clocks =
    Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period
  in
  let dut_clocks = Phase3.Flow.clocks_of config in
  let stimulus = Phase3.Flow.equivalence_stimulus config d in
  (match
     Sim.Equivalence.check ~reference:d ~dut:mutant ~reference_clocks
       ~dut_clocks ~stimulus:(Sim.Stimulus.lane stimulus 0) ()
   with
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
      "cycle 8 port o2 lane 31: expected 0, got 1"
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

(* [retimed] gated from the activity of a whole-design kernel on the
   stage's draw *)
let gate_on_whole_design config retimed =
  let kernel =
    Sim.Kernel.create retimed ~clocks:(Phase3.Flow.clocks_of config)
  in
  Sim.Kernel.run kernel
    (Sim.Stimulus.draw
       ~seeds:
         (Array.init Sim.Kernel.max_lanes (fun l ->
              config.Phase3.Flow.activity_seed + l))
       ~cycles:config.Phase3.Flow.activity_cycles (Sim.Stimulus.Uniform 0.25)
       (Sim.Stimulus.inputs_of retimed));
  fst
    (Phase3.Clock_gating.run ~options:config.Phase3.Flow.clock_gating
       ~ports:config.Phase3.Flow.ports
       ~activity:(Sim.Kernel.toggles kernel, Sim.Kernel.lane_cycles kernel)
       retimed)

let rec has_span name nodes =
  List.exists
    (fun (n : Obs.span_node) ->
      String.equal n.Obs.node_name name || has_span name n.Obs.n_children)
    nodes

(* the stage's kernel simulates only the fan-in of the DDCG pool's data
   nets, and the flow writes the netlist that a whole-design kernel's
   activity gives *)
let test_cone_activity_same_netlist () =
  let gated =
    List.fold_left
      (fun gated name ->
        let bench = Option.get (Circuits.Suite.find name) in
        let config =
          { (Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns)
            with Phase3.Flow.verify_equivalence = false; lint = false }
        in
        let r = Phase3.Flow.run ~config (bench.Circuits.Suite.build ()) in
        check Alcotest.string name
          (Netlist_io.Verilog.write
             (gate_on_whole_design config r.Phase3.Flow.retimed))
          (Netlist_io.Verilog.write r.Phase3.Flow.final);
        gated + (Option.get r.Phase3.Flow.cg_stats).Phase3.Clock_gating.ddcg_gated)
      0 [ "s1196"; "s5378"; "s13207" ]
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
