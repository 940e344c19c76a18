(* Tests for the timing substrate: path delays, SMO multi-phase checks and
   hold fixing. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder
module D = Netlist.Design

(* clk -> r1 -> inv -> inv -> r2 : exact delays are computable by hand *)
let two_stage () =
  let b = B.create ~name:"two" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  let n1 = B.fresh_net b "n1" in
  ignore (B.add_cell b "i1" "INV_X1" [("A", q1); ("ZN", n1)]);
  let n2 = B.fresh_net b "n2" in
  ignore (B.add_cell b "i2" "INV_X1" [("A", n1); ("ZN", n2)]);
  let q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "r2" "DFF_X1" [("CK", clk); ("D", n2); ("Q", q2)]);
  B.add_output b "y" q2;
  B.freeze b

let inv_delay (g : Sta.Graph.t) inst_name =
  g.Sta.Graph.delay_max.(Option.get (D.find_inst g.Sta.Graph.design inst_name))

let test_path_delays_exact () =
  let d = two_stage () in
  let g = Sta.Graph.create d in
  let r1 = Option.get (D.find_inst d "r1") in
  let r2 = Option.get (D.find_inst d "r2") in
  let p =
    List.find
      (fun (p : Sta.Paths.path) ->
        p.Sta.Paths.src = Sta.Paths.Reg r1 && p.Sta.Paths.dst = Sta.Paths.Reg r2)
      (Sta.Paths.compute g)
  in
  let expect = inv_delay g "i1" +. inv_delay g "i2" in
  check (Alcotest.float 1e-9) "max = sum of inverter delays" expect
    p.Sta.Paths.max_delay;
  check Alcotest.bool "min <= max" true (p.Sta.Paths.min_delay <= p.Sta.Paths.max_delay)

(* The arcs as the full sweep finds them: one whole-design
   [Graph.forward] per source (each register's Q net in
   [sequential_insts] order, then each non-clock input port), then a
   scan of every sink.  [Paths.compute] walks only each source's cone
   and must return this list exactly. *)
let full_sweep_arcs g =
  let d = g.Sta.Graph.design in
  let sources =
    List.filter_map
      (fun i -> Option.map (fun q -> (Sta.Paths.Reg i, q)) (D.q_net_of d i))
      (D.sequential_insts d)
    @ List.filter_map
        (fun (p, net) ->
          if D.is_clock_port d p then None else Some (Sta.Paths.Port p, net))
        d.D.primary_inputs
  in
  List.fold_left
    (fun paths (src, src_net) ->
      let amax, amin = Sta.Graph.forward g [src_net] in
      List.fold_left
        (fun paths (dst, dst_net) ->
          if amax.(dst_net) > Float.neg_infinity then
            { Sta.Paths.src; dst; max_delay = amax.(dst_net);
              min_delay = amin.(dst_net) }
            :: paths
          else paths)
        paths (Sta.Paths.sinks d))
    [] sources

(* same length, order and endpoints, and the same float bits *)
let same_arcs (a : Sta.Paths.path list) (b : Sta.Paths.path list) =
  let bits = Int64.bits_of_float in
  List.length a = List.length b
  && List.for_all2
       (fun (p : Sta.Paths.path) (q : Sta.Paths.path) ->
         p.src = q.src && p.dst = q.dst
         && Int64.equal (bits p.max_delay) (bits q.max_delay)
         && Int64.equal (bits p.min_delay) (bits q.min_delay))
       a b

(* Generated designs whose cones reconverge ([reuse]), stop at clock
   gates ([gated_fraction]) and close on their own register
   ([self_loop_fraction]), in flip-flop form and converted. *)
let cone_spec_gen =
  QCheck.Gen.(
    map
      (fun (seed, (layers, reuse), (gated, self_loop)) ->
        { Circuits.Generator.name = Printf.sprintf "cone%d" seed; seed;
          inputs = 5; outputs = 3; layers; fanin = 3; cone_depth = 4;
          self_loop_fraction = self_loop; cross_feedback = 0.25; reuse;
          gated_fraction = gated; bank_size = 3; po_cones = 3;
          frequency_mhz = 1000.0 })
      (triple (int_bound 1_000_000)
         (pair (array_size (int_range 2 4) (int_range 2 8))
            (float_range 0.1 0.6))
         (pair (float_range 0.1 0.6) (float_range 0.1 0.5))))

let prop_cone_arcs_equal_full_sweeps =
  QCheck.Test.make ~name:"cone arcs equal full sweeps" ~count:40
    (QCheck.make
       ~print:(fun (s : Circuits.Generator.spec) ->
         Printf.sprintf "seed %d, layers [%s], reuse %g, gated %g, self loops %g"
           s.seed
           (String.concat "; " (Array.to_list (Array.map string_of_int s.layers)))
           s.reuse s.gated_fraction s.self_loop_fraction)
       cone_spec_gen)
    (fun spec ->
      let d = Circuits.Generator.synthesize spec in
      let d3 = Phase3.Convert.to_three_phase d (Phase3.Assignment.solve d) in
      List.for_all
        (fun d ->
          let g = Sta.Graph.create d in
          same_arcs (Sta.Paths.compute g) (full_sweep_arcs g))
        [d; d3])

(* The cone walk's bookkeeping: g1 reads q1 on both pins and is relaxed
   once; input a is wired straight to output y and r1's Q straight to
   r3's D, so both arcs have 0 delay. *)
let test_cone_walk_corner_cases () =
  let b = B.create ~name:"corners" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  let n1 = B.fresh_net b "n1" in
  ignore (B.add_cell b "g1" "AND2_X1" [("A1", q1); ("A2", q1); ("Z", n1)]);
  let q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "r2" "DFF_X1" [("CK", clk); ("D", n1); ("Q", q2)]);
  let q3 = B.fresh_net b "q3" in
  ignore (B.add_cell b "r3" "DFF_X1" [("CK", clk); ("D", q1); ("Q", q3)]);
  B.add_output b "y" a;
  B.add_output b "z" q2;
  B.add_output b "w" q3;
  let d = B.freeze b in
  let g = Sta.Graph.create d in
  Obs.reset ();
  let paths = Sta.Paths.compute g in
  check Alcotest.bool "equals the full sweeps" true
    (same_arcs paths (full_sweep_arcs g));
  check Alcotest.int "g1 relaxed once" 1
    (Obs.counter_of "sta.paths.relaxations");
  check Alcotest.int "arcs counted" (List.length paths)
    (Obs.counter_of "sta.paths.arcs");
  let arc src dst =
    match
      List.find_opt
        (fun (p : Sta.Paths.path) -> p.src = src && p.dst = dst) paths
    with
    | Some p -> (p.max_delay, p.min_delay)
    | None -> Alcotest.fail "arc missing"
  in
  let reg name = Sta.Paths.Reg (Option.get (D.find_inst d name)) in
  check (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0))
    "input to output" (0.0, 0.0)
    (arc (Sta.Paths.Port "a") (Sta.Paths.Port "y"));
  check (Alcotest.pair (Alcotest.float 0.0) (Alcotest.float 0.0))
    "Q to D" (0.0, 0.0) (arc (reg "r1") (reg "r3"));
  check (Alcotest.float 1e-12) "through the doubly read net"
    (inv_delay g "g1") (fst (arc (reg "r1") (reg "r2")))

let test_forward_backward_consistent () =
  let d = two_stage () in
  let g = Sta.Graph.create d in
  let fwd = Sta.Paths.forward_arrivals g in
  let bwd = Sta.Graph.backward g (List.map snd (Sta.Paths.sinks d)) in
  let r2 = Option.get (D.find_inst d "r2") in
  let dn = Option.get (D.data_net_of d r2) in
  let r1 = Option.get (D.find_inst d "r1") in
  let qn = Option.get (D.q_net_of d r1) in
  (* forward arrival at r2's D equals backward delay from r1's Q *)
  check (Alcotest.float 1e-9) "forward = backward on a chain" fwd.(dn) bwd.(qn)

let test_smo_ff_design_ok () =
  let d = two_stage () in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let r = Sta.Smo.check d ~clocks in
  check Alcotest.bool "meets timing at 1ns" true (Sta.Smo.ok r);
  (* setup slack should be roughly T - margins - path - clk2q *)
  check Alcotest.bool "slack below period" true
    (r.Sta.Smo.worst_setup_slack < 1.0)

let test_smo_catches_setup_violation () =
  let d = two_stage () in
  let clocks = Sim.Clock_spec.single ~period:0.1 ~port:"clk" in
  let r = Sta.Smo.check d ~clocks in
  check Alcotest.bool "violated at 100ps" false (Sta.Smo.ok r);
  check Alcotest.bool "reports setup violations" true
    (List.exists (fun v -> v.Sta.Smo.kind = `Setup) r.Sta.Smo.violations)

let test_smo_three_phase_budgets () =
  (* p2 -> p1 paths get roughly 2T/3 of budget; validate on a converted
     pipeline that timing passes at the design period but fails when the
     period shrinks below the combinational delay's phase budget *)
  let d = Circuits.Linear_pipeline.make ~width:4 ~stages:4 () in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.verify_equivalence = false } in
  let r = Phase3.Flow.run ~config d in
  let final = r.Phase3.Flow.final in
  let ok_spec = Phase3.Flow.clocks_of config in
  check Alcotest.bool "passes at 1ns" true (Sta.Smo.ok (Sta.Smo.check final ~clocks:ok_spec));
  let tight =
    Sim.Clock_spec.three_phase ~period:0.12 ~p1:"p1" ~p2:"p2" ~p3:"p3" ()
  in
  check Alcotest.bool "fails at 120ps" false
    (Sta.Smo.ok (Sta.Smo.check final ~clocks:tight))

let test_smo_borrowing_reported () =
  (* a latch pipeline with a long cone borrows into the next window *)
  let b = B.create ~name:"borrow" ~library:lib in
  let p1 = B.add_input ~clock:true b "p1" in
  let p2 = B.add_input ~clock:true b "p2" in
  let p3 = B.add_input ~clock:true b "p3" in
  ignore p3;
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" in
  ignore (B.add_cell b "l1" "LATH_X1" [("E", p1); ("D", a); ("Q", q1)]);
  (* long inverter chain *)
  let rec chain src k =
    if k = 0 then src
    else begin
      let n = B.fresh_net b (Printf.sprintf "c%d" k) in
      ignore (B.add_cell b (Printf.sprintf "iv%d" k) "INV_X1" [("A", src); ("ZN", n)]);
      chain n (k - 1)
    end
  in
  let long = chain q1 14 in
  let q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "l2" "LATH_X1" [("E", p2); ("D", long); ("Q", q2)]);
  B.add_output b "y" q2;
  let d = B.freeze b in
  let clocks = Sim.Clock_spec.three_phase ~period:0.8 ~p1:"p1" ~p2:"p2" ~p3:"p3" () in
  let r = Sta.Smo.check d ~clocks in
  (* the chain is longer than the p1->p2 shift, so l2's departure borrows *)
  check Alcotest.bool "borrowing observed" true (r.Sta.Smo.max_borrow > 0.0)

let test_hold_fix_pads_ff_design () =
  (* a direct register-to-register path violates hold under skew and gets
     padded until clean *)
  let b = B.create ~name:"hold" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  let q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "r2" "DFF_X1" [("CK", clk); ("D", q1); ("Q", q2)]);
  B.add_output b "y" q2;
  let d = B.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let d', stats = Sta.Hold_fix.run ~skew:0.08 d ~clocks in
  check Alcotest.bool "buffers added" true (stats.Sta.Hold_fix.buffers_added > 0);
  check Alcotest.bool "fixed" true stats.Sta.Hold_fix.fixed;
  let r = Sta.Smo.check ~clock_skew:0.08 d' ~clocks in
  check Alcotest.bool "hold clean after fix" true (r.Sta.Smo.worst_hold_slack >= 0.0);
  (* behaviour is unchanged by buffering *)
  let stim = Sim.Stimulus.random ~seed:2 ~cycles:40 ~toggle_probability:0.5 ["a"] in
  match Sim.Equivalence.check ~reference:d ~dut:d' ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:stim () with
  | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
  | Sim.Equivalence.Mismatch _ -> Alcotest.fail "hold buffers changed behaviour"

let test_hold_fix_three_phase_needs_fewer () =
  (* the same logical design converted to 3-phase needs fewer hold buffers
     than the FF original — the paper's comb-power argument *)
  let d = Circuits.Linear_pipeline.make ~width:8 ~stages:4 () in
  let period = 1.0 in
  let ff_clocks = Sim.Clock_spec.single ~period ~port:"clk" in
  let _, ff_stats = Sta.Hold_fix.run d ~clocks:ff_clocks in
  let config = { (Phase3.Flow.default_config ~period) with
                 Phase3.Flow.verify_equivalence = false } in
  let r = Phase3.Flow.run ~config d in
  let _, tp_stats =
    Sta.Hold_fix.run r.Phase3.Flow.final ~clocks:(Phase3.Flow.clocks_of config)
  in
  check Alcotest.bool "3-phase needs no more hold buffers than FF" true
    (tp_stats.Sta.Hold_fix.buffers_added <= ff_stats.Sta.Hold_fix.buffers_added)

let suite =
  [ Alcotest.test_case "path delays exact" `Quick test_path_delays_exact;
    QCheck_alcotest.to_alcotest prop_cone_arcs_equal_full_sweeps;
    Alcotest.test_case "cone walk corner cases" `Quick test_cone_walk_corner_cases;
    Alcotest.test_case "forward/backward consistent" `Quick test_forward_backward_consistent;
    Alcotest.test_case "smo ok on ff design" `Quick test_smo_ff_design_ok;
    Alcotest.test_case "smo catches setup violation" `Quick test_smo_catches_setup_violation;
    Alcotest.test_case "smo three-phase budgets" `Quick test_smo_three_phase_budgets;
    Alcotest.test_case "smo reports borrowing" `Quick test_smo_borrowing_reported;
    Alcotest.test_case "hold fix pads ff design" `Quick test_hold_fix_pads_ff_design;
    Alcotest.test_case "hold fix favours latches" `Quick test_hold_fix_three_phase_needs_fewer ]

(* The oracle: the SMO recurrence with one whole-design [Graph.forward]
   per register (from its Q net) and one for the input ports together,
   each read at every register's data net, so no {!Sta.Paths} arc and
   no cone walk enters it.  Takes the register views as the analysis
   derived them.  Returns each register's worst setup and hold
   slack over its launches (in view order, [None] when nothing reaches
   it), then the report's worst setup and hold slack, max borrow and
   iterations. *)
let oracle ~clock_skew ~derate:(derate_early, derate_late) d ~clocks views =
  let setup_margin = 0.03 +. clock_skew and base_hold_margin = 0.02 in
  let hold_margin = base_hold_margin +. clock_skew in
  let input_delay_min, input_delay_max = (0.05, 0.10) in
  let period = clocks.Sim.Clock_spec.period in
  (* from closing edge [e_from] to the next occurrence of [e_to] *)
  let forward_shift e_from e_to =
    let diff = Float.rem (e_to -. e_from) period in
    if diff <= 1e-12 then diff +. period else diff
  in
  let g = Sta.Graph.create d in
  let views = Array.of_list views in
  let data =
    Array.map (fun (v : Sta.Smo.reg_view) -> D.data_net_of d v.inst) views
  in
  (* launches: (view, sweep) per register with a Q net, then the inputs *)
  let regs =
    List.filter_map
      (fun k ->
        Option.map (fun q -> (Some k, Sta.Graph.forward g [q]))
          (D.q_net_of d views.(k).Sta.Smo.inst))
      (List.init (Array.length views) Fun.id)
  in
  let pis =
    List.filter_map
      (fun (p, net) -> if D.is_clock_port d p then None else Some net)
      d.D.primary_inputs
  in
  let launches =
    regs @ (if pis = [] then [] else [(None, Sta.Graph.forward g pis)])
  in
  let departures = Array.map (fun (v : Sta.Smo.reg_view) -> -.v.width) views in
  let late = function
    | None -> input_delay_max
    | Some j -> departures.(j) +. (views.(j).Sta.Smo.clk2q_max *. derate_late)
  in
  let close = function None -> 0.0 | Some j -> views.(j).Sta.Smo.close in
  (* [f launch shift amax amin] over the launches reaching register k *)
  let fold_launches k f init =
    match data.(k) with
    | None -> init
    | Some dn ->
      List.fold_left
        (fun acc (j, (amax, amin)) ->
          if amax.(dn) > Float.neg_infinity then
            f acc j
              (forward_shift (close j) views.(k).Sta.Smo.close)
              amax.(dn) amin.(dn)
          else acc)
        init launches
  in
  let arrival k =
    fold_launches k
      (fun acc j shift amax _ ->
        Float.max acc (late j +. (amax *. derate_late) -. shift))
      Float.neg_infinity
  in
  let iterations = ref 0 and changed = ref true and diverged = ref false in
  while !changed && not !diverged do
    incr iterations;
    if !iterations > Array.length views + 8 then diverged := true
    else begin
      changed := false;
      Array.iteri
        (fun k (v : Sta.Smo.reg_view) ->
          let dep = Float.max (-.v.width) (arrival k) in
          if dep > departures.(k) +. 1e-9 then begin
            departures.(k) <- dep;
            changed := true
          end)
        views
    end
  done;
  let per_reg =
    Array.mapi
      (fun k (v : Sta.Smo.reg_view) ->
        fold_launches k
          (fun acc j shift amax amin ->
            let setup =
              -.(late j +. (amax *. derate_late) -. shift) -. setup_margin
            in
            let early, clk2q_min, margin =
              match j with
              | None -> (input_delay_min, 0.0, hold_margin)
              | Some j ->
                let u = views.(j) in
                ( -.u.Sta.Smo.width, u.Sta.Smo.clk2q_min,
                  if String.equal u.Sta.Smo.port v.port
                     && Float.abs (u.Sta.Smo.close -. v.close) > 1e-9
                  then base_hold_margin
                  else hold_margin )
            in
            let hold =
              early +. ((clk2q_min +. amin) *. derate_early) -. shift +. period
              -. margin
            in
            match acc with
            | None -> Some (setup, hold)
            | Some (s, h) -> Some (Float.min s setup, Float.min h hold))
          None)
      views
  in
  let worst f =
    Array.fold_left
      (fun acc r -> match r with Some x -> Float.min acc (f x) | None -> acc)
      Float.infinity per_reg
  in
  let worst_setup = worst fst and worst_hold = worst snd in
  let max_borrow =
    Array.fold_left Float.max 0.0
      (Array.mapi
         (fun k (v : Sta.Smo.reg_view) ->
           if v.width > 0.0 then departures.(k) +. v.width else 0.0)
         views)
  in
  ( Array.to_list per_reg,
    ( (if !diverged then Float.neg_infinity
       else if worst_setup = Float.infinity then period
       else worst_setup),
      (if worst_hold = Float.infinity then period else worst_hold),
      max_borrow, !iterations ) )

(* the analysis in the oracle's shape *)
let analysed (a : Sta.Smo.t) =
  let per_reg =
    List.map
      (fun (v : Sta.Smo.reg_view) ->
        List.fold_left
          (fun acc (arc : Sta.Smo.arc) ->
            if arc.capture.inst <> v.inst then acc
            else
              match acc with
              | None -> Some (arc.setup_slack, arc.hold_slack)
              | Some (s, h) ->
                Some (Float.min s arc.setup_slack, Float.min h arc.hold_slack))
          None (Lazy.force a.arcs))
      a.views
  in
  let r = a.report in
  ( per_reg,
    (r.worst_setup_slack, r.worst_hold_slack, r.max_borrow, r.iterations) )

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* generated designs as flip-flop, master-slave and 3-phase netlists,
   at a relaxed and a tight period, under the defaults and every corner;
   float bits included *)
let prop_smo_equals_per_register_sweeps =
  QCheck.Test.make ~name:"smo equals per-register sweeps" ~count:25
    (QCheck.make
       ~print:(fun (s : Circuits.Generator.spec) ->
         Printf.sprintf "seed %d, layers [%s]" s.seed
           (String.concat "; " (Array.to_list (Array.map string_of_int s.layers))))
       cone_spec_gen)
    (fun spec ->
      let d = Circuits.Generator.synthesize spec in
      let d3 = Phase3.Convert.to_three_phase d (Phase3.Assignment.solve d) in
      let settings =
        (0.0, (1.0, 1.0))
        :: List.map
             (fun (c : Sta.Corners.corner) ->
               (c.skew, (c.derate_early, c.derate_late)))
             Sta.Corners.default_corners
      in
      List.for_all
        (fun period ->
          List.for_all
            (fun (d, clocks) ->
              List.for_all
                (fun (clock_skew, derate) ->
                  let a = Sta.Smo.analyse ~clock_skew ~derate d ~clocks in
                  let per_reg, (s, h, b, i) = analysed a in
                  let per_reg', (s', h', b', i') =
                    oracle ~clock_skew ~derate d ~clocks a.views
                  in
                  List.equal
                    (Option.equal (fun (s, h) (s', h') ->
                         same_bits s s' && same_bits h h'))
                    per_reg per_reg'
                  && same_bits s s' && same_bits h h' && same_bits b b' && i = i')
                settings)
            [ (d, Phase3.Flow.reference_clocks d ~period);
              (Phase3.Master_slave.convert d,
               Phase3.Flow.reference_clocks d ~period);
              (d3,
               Sim.Clock_spec.three_phase ~period ~p1:"p1" ~p2:"p2" ~p3:"p3" ()) ])
        [1.0; 0.25])

(* Pairing one register's launch with another's path over-fixes hold: r_light
   (one inverter load, the smallest clk->q) reaches r_cap only through
   an inverter chain, r_heavy (an INV_X4 load, a slow clk->q) through
   one NAND.  The light launch plus the NAND path would miss the hold
   requirement; each register's own pairing meets it, so hold fixing
   adds nothing. *)
let test_hold_pairs_each_register () =
  let b = B.create ~name:"pairing" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let rec chain name src k =
    if k = 0 then src
    else begin
      let n = B.fresh_net b name in
      ignore
        (B.add_cell b (Printf.sprintf "%s%d" name k) "INV_X1"
           [("A", src); ("ZN", n)]);
      chain name n (k - 1)
    end
  in
  (* the input reaches both launching registers late enough to hold *)
  let na = chain "ia" a 4 in
  let ql = B.fresh_net b "ql" and qh = B.fresh_net b "qh" in
  ignore (B.add_cell b "r_light" "DFF_X1" [("CK", clk); ("D", na); ("Q", ql)]);
  ignore (B.add_cell b "r_heavy" "DFF_X1" [("CK", clk); ("D", na); ("Q", qh)]);
  let nl = chain "il" ql 3 in
  let z = B.fresh_net b "z" in
  ignore (B.add_cell b "load" "INV_X4" [("A", qh); ("ZN", z)]);
  let dn = B.fresh_net b "dn" in
  ignore (B.add_cell b "merge" "NAND2_X1" [("A1", qh); ("A2", nl); ("ZN", dn)]);
  let qc = B.fresh_net b "qc" in
  ignore (B.add_cell b "r_cap" "DFF_X1" [("CK", clk); ("D", dn); ("Q", qc)]);
  B.add_output b "y" qc;
  B.add_output b "z" z;
  let d = B.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let skew = 0.06 in
  let required = 0.02 +. skew in
  let g = Sta.Graph.create d in
  let min_delay name = g.Sta.Graph.delay_min.(Option.get (D.find_inst d name)) in
  check Alcotest.bool "the light launch on the NAND path misses hold" true
    (min_delay "r_light" +. min_delay "merge" < required);
  let timing = Sta.Smo.analyse ~clock_skew:skew d ~clocks in
  let heavy = Option.get (D.find_inst d "r_heavy") in
  let arc =
    List.find
      (fun (arc : Sta.Smo.arc) -> arc.src = Sta.Paths.Reg heavy)
      (Lazy.force timing.arcs)
  in
  check Alcotest.string "the heavy arc captures at r_cap" "r_cap"
    (D.inst_name d arc.capture.inst);
  check (Alcotest.float 1e-12) "heavy arc hold slack"
    (min_delay "r_heavy" +. min_delay "merge" -. required) arc.hold_slack;
  check Alcotest.bool "every arc holds" true
    (timing.report.worst_hold_slack >= 0.0);
  let _, stats = Sta.Hold_fix.run ~skew d ~clocks in
  check Alcotest.int "no hold buffer" 0 stats.Sta.Hold_fix.buffers_added;
  check Alcotest.bool "fixed" true stats.Sta.Hold_fix.fixed

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest prop_smo_equals_per_register_sweeps;
      Alcotest.test_case "hold pairs each register" `Quick
        test_hold_pairs_each_register ]

(* Golden digests of the timing layer's output on three converted suite
   circuits at a tight 0.35 ns period: the lint JSON (5, 2 and 107
   PHASE-003 errors), every corner's SMO report with its violations (time
   borrowing and hold violations; the fixed point converges at the fast
   and typical corners and diverges at the slow corner on s1238 and
   s1423), and the five worst paths; then the path enumeration's work
   counters during lint.  Any change to the timing arithmetic shows
   here. *)
let timing_digests circuit =
  let d = (Option.get (Circuits.Suite.find circuit)).Circuits.Suite.build () in
  let d3 = Phase3.Convert.to_three_phase d (Phase3.Assignment.solve d) in
  let clocks =
    Sim.Clock_spec.three_phase ~period:0.35 ~p1:"p1" ~p2:"p2" ~p3:"p3" ()
  in
  Obs.reset ();
  let lint =
    Format.asprintf "%a" Lint_core.Emit.json
      (Lint.Engine.run d3 ~clocks).Lint.Engine.diagnostics
  in
  let work =
    Printf.sprintf "%d relaxations, %d arcs"
      (Obs.counter_of "sta.paths.relaxations")
      (Obs.counter_of "sta.paths.arcs")
  in
  let smo = Buffer.create 4096 in
  List.iter
    (fun ((c : Sta.Corners.corner), (r : Sta.Smo.report)) ->
      Buffer.add_string smo
        (Printf.sprintf "%s %h %h %h %d\n" c.corner_name r.worst_setup_slack
           r.worst_hold_slack r.max_borrow r.iterations);
      List.iter
        (fun (v : Sta.Smo.violation) ->
          Buffer.add_string smo
            (Printf.sprintf "  %s %s %h %s\n" (D.inst_name d3 v.dst)
               (match v.kind with `Setup -> "setup" | `Hold -> "hold")
               v.slack (Lint.Phase_audit.endpoint_name d3 v.src)))
        r.violations)
    (Sta.Corners.check_all d3 ~clocks);
  let report =
    Format.asprintf "%a" (Sta.Timing_report.pp d3)
      (Sta.Timing_report.worst_paths ~count:5 d3)
  in
  List.map (fun s -> Digest.to_hex (Digest.string s))
    [lint; Buffer.contents smo; report]
  @ [work]

let test_timing_golden_digests () =
  List.iter
    (fun (circuit, expect) ->
      check (Alcotest.list Alcotest.string)
        (circuit ^ ": lint, smo, report, path work")
        expect (timing_digests circuit))
    [ ("s1196", ["1b4931ffb225db98a92af2b38ff34b7a";
                 "888d0545dcaa820d549fefa63374a4d1";
                 "9a1f1f2b5c3a148288b09d0adb57086e";
                 "388 relaxations, 109 arcs"]);
      ("s1238", ["11836c6ac18975613fdbd3f917696898";
                 "94415c8c154df54caf25e229307e991c";
                 "6a4d07016e4e01022ec597e0e50d1c4f";
                 "342 relaxations, 89 arcs"]);
      ("s1423", ["37cef407f2aa7145872c9a425989f3ec";
                 "af7653a2b06702cfb5d9349ff6b98277";
                 "0cf3981a69038dcd2ac5257efad69df0";
                 "1061 relaxations, 454 arcs"]) ]

let suite =
  suite
  @ [ Alcotest.test_case "timing golden digests" `Quick test_timing_golden_digests ]
