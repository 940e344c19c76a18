(* Tests for the netlist IR: builder, traversal, FF graph, clock tracing,
   validation and the gate-tree constructors. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder
module D = Netlist.Design

(* A small reference design used by several tests:
   clk -> [icg en] -> r0 ; r0 -> inv -> r1 ; r1,a -> nand -> y *)
let sample () =
  let b = B.create ~name:"sample" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let en = B.add_input b "en" in
  let a = B.add_input b "a" in
  let d0 = B.add_input b "d0" in
  let gck = B.fresh_net b "gck" in
  ignore (B.add_cell b "icg0" "ICG_X1" [("CK", clk); ("EN", en); ("GCK", gck)]);
  let q0 = B.fresh_net b "q0" in
  ignore (B.add_cell b "r0" "DFF_X1" [("CK", gck); ("D", d0); ("Q", q0)]);
  let n1 = B.fresh_net b "n1" in
  ignore (B.add_cell b "inv" "INV_X1" [("A", q0); ("ZN", n1)]);
  let q1 = B.fresh_net b "q1" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", n1); ("Q", q1)]);
  let y = B.fresh_net b "y" in
  ignore (B.add_cell b "g" "NAND2_X1" [("A1", q1); ("A2", a); ("ZN", y)]);
  B.add_output b "y" y;
  B.freeze b

let test_builder_basics () =
  let d = sample () in
  check Alcotest.int "insts" 5 (D.num_insts d);
  check Alcotest.int "sequential" 2 (List.length (D.sequential_insts d));
  check Alcotest.int "clock gates" 1 (List.length (D.clock_gate_insts d));
  let r0 = Option.get (D.find_inst d "r0") in
  check Alcotest.string "q net name" "q0" (D.net_name d (Option.get (D.q_net_of d r0)));
  check Alcotest.string "d net name" "d0" (D.net_name d (Option.get (D.data_net_of d r0)))

let test_multiply_driven_rejected () =
  let b = B.create ~name:"bad" ~library:lib in
  let a = B.add_input b "a" in
  let n = B.fresh_net b "n" in
  ignore (B.add_cell b "i1" "INV_X1" [("A", a); ("ZN", n)]);
  ignore (B.add_cell b "i2" "INV_X1" [("A", a); ("ZN", n)]);
  (try
     ignore (B.freeze b);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_unknown_pin_rejected () =
  let b = B.create ~name:"bad" ~library:lib in
  let a = B.add_input b "a" in
  (try
     ignore (B.add_cell b "i1" "INV_X1" [("NOPE", a)]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_fresh_net_uniqueness () =
  let b = B.create ~name:"n" ~library:lib in
  let n1 = B.fresh_net b "x" in
  let n2 = B.fresh_net b "x" in
  check Alcotest.bool "distinct ids" true (n1 <> n2)

let test_const_sharing () =
  let b = B.create ~name:"c" ~library:lib in
  check Alcotest.int "tie1 shared" (B.const b true) (B.const b true);
  check Alcotest.bool "tie0 distinct from tie1" true
    (B.const b false <> B.const b true)

(* --- Traverse --- *)

let test_topo_order () =
  let d = sample () in
  let order = Netlist.Traverse.comb_topo_exn d in
  (* inv must come before g is irrelevant (independent), but both comb
     cells and only those are in the order *)
  check Alcotest.int "comb cells ordered" 2 (List.length order)

let test_comb_cycle_detection () =
  let b = B.create ~name:"cyc" ~library:lib in
  let a = B.add_input b "a" in
  let n1 = B.fresh_net b "n1" in
  let n2 = B.fresh_net b "n2" in
  ignore (B.add_cell b "g1" "NAND2_X1" [("A1", a); ("A2", n2); ("ZN", n1)]);
  ignore (B.add_cell b "g2" "INV_X1" [("A", n1); ("ZN", n2)]);
  B.add_output b "y" n1;
  let d = B.freeze b in
  (match Netlist.Traverse.comb_topo d with
   | Error (_ :: _) -> ()
   | Error [] | Ok _ -> Alcotest.fail "cycle not detected");
  (match Netlist.Check.validate d with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "check should reject combinational cycles")

let test_net_levels () =
  let d = sample () in
  let levels = Netlist.Traverse.net_levels d in
  let r1 = Option.get (D.find_inst d "r1") in
  let n1 = Option.get (D.data_net_of d r1) in
  check Alcotest.int "inv output at level 1" 1 levels.(n1)

(* --- Ff_graph --- *)

let test_ff_graph () =
  let d = sample () in
  let g = Netlist.Ff_graph.build d in
  check Alcotest.int "two nodes" 2 (Netlist.Ff_graph.size g);
  check Alcotest.int "no self loops" 0 (Netlist.Ff_graph.self_loop_count g);
  (* r0 -> r1 through the inverter *)
  let pos_r0 = Hashtbl.find g.Netlist.Ff_graph.position (Option.get (D.find_inst d "r0")) in
  let pos_r1 = Hashtbl.find g.Netlist.Ff_graph.position (Option.get (D.find_inst d "r1")) in
  check (Alcotest.list Alcotest.int) "r0 fanout" [pos_r1]
    g.Netlist.Ff_graph.fanout.(pos_r0);
  check (Alcotest.list Alcotest.int) "r1 fanout empty" []
    g.Netlist.Ff_graph.fanout.(pos_r1)

let test_ff_graph_self_loop () =
  let b = B.create ~name:"loop" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let q = B.fresh_net b "q" in
  let nq = B.fresh_net b "nq" in
  ignore (B.add_cell b "inv" "INV_X1" [("A", q); ("ZN", nq)]);
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", nq); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let g = Netlist.Ff_graph.build d in
  check Alcotest.int "self loop found" 1 (Netlist.Ff_graph.self_loop_count g)

let test_pi_fanout () =
  let d = sample () in
  let g = Netlist.Ff_graph.build d in
  (* d0 reaches r0; en reaches nothing through data; a reaches nothing *)
  let idx name =
    let rec go k =
      if k >= Array.length g.Netlist.Ff_graph.pi_names then
        Alcotest.failf "input %s not tracked" name
      else if String.equal g.Netlist.Ff_graph.pi_names.(k) name then k
      else go (k + 1)
    in
    go 0
  in
  check Alcotest.int "d0 reaches one ff" 1
    (List.length g.Netlist.Ff_graph.pi_fanout.(idx "d0"));
  check Alcotest.int "a reaches none" 0
    (List.length g.Netlist.Ff_graph.pi_fanout.(idx "a"))

(* --- Clocking --- *)

let test_clock_trace () =
  let d = sample () in
  let r0 = Option.get (D.find_inst d "r0") in
  let cn = Option.get (D.clock_net_of d r0) in
  (match Netlist.Clocking.trace_to_root d cn with
   | Some { Netlist.Clocking.root_port; elements } ->
     check Alcotest.string "root" "clk" root_port;
     check Alcotest.int "one icg on path" 1
       (List.length
          (List.filter
             (function
               | Netlist.Clocking.Through_icg _ -> true
               | Netlist.Clocking.Through_buffer _ -> false)
             elements))
   | None -> Alcotest.fail "no clock root found");
  let network = Netlist.Clocking.network d in
  let sinks =
    List.filter
      (fun i ->
        Option.fold ~none:false ~some:network.Netlist.Clocking.has_net
          (D.clock_net_of d i))
      (D.sequential_insts d)
  in
  check Alcotest.int "both registers reachable from clk" 2 (List.length sinks)

let test_gating_icg () =
  let d = sample () in
  let r0 = Option.get (D.find_inst d "r0") in
  let r1 = Option.get (D.find_inst d "r1") in
  (match Netlist.Clocking.gating_icg d (Option.get (D.clock_net_of d r0)) with
   | Some icg -> check Alcotest.string "r0 gated by icg0" "icg0" (D.inst_name d icg)
   | None -> Alcotest.fail "r0 should be gated");
  check Alcotest.bool "r1 ungated" true
    (Netlist.Clocking.gating_icg d (Option.get (D.clock_net_of d r1)) = None)

(* --- Check --- *)

let test_check_clean () =
  match Netlist.Check.validate (sample ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es)

let test_check_undriven () =
  let b = B.create ~name:"und" ~library:lib in
  let n = B.fresh_net b "floating" in
  ignore (B.add_cell b "i" "INV_X1" [("A", n); ("ZN", B.fresh_net b "o")]);
  B.add_output b "y" n;
  let d = B.freeze b in
  (match Netlist.Check.validate d with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "undriven nets must be errors")

(* --- Gates --- *)

(* Evaluate a single-output design's output for given input values by
   direct simulation (combinational only). *)
let eval_design d inputs =
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"__noclk" in
  let engine = Sim.Engine.create d ~clocks in
  let out = Sim.Engine.run_cycle engine inputs in
  List.assoc "y" out

let test_gates_wide_ops () =
  List.iter
    (fun (op, arity, f) ->
      let b = B.create ~name:"g" ~library:lib in
      let ins =
        List.init arity (fun k -> (Printf.sprintf "i%d" k, B.add_input b (Printf.sprintf "i%d" k)))
      in
      let out = B.fresh_net b "y" in
      Netlist.Gates.emit b op (List.map snd ins) ~out ~prefix:"t";
      B.add_output b "y" out;
      let d = B.freeze b in
      (* try all input combinations *)
      for mask = 0 to (1 lsl arity) - 1 do
        let vals =
          List.mapi (fun k (name, _) -> (name, Sim.Logic.of_bool ((mask lsr k) land 1 = 1)))
            ins
        in
        let bits = List.init arity (fun k -> (mask lsr k) land 1 = 1) in
        let got = eval_design d vals in
        let expect = Sim.Logic.of_bool (f bits) in
        if not (Sim.Logic.equal got expect) then
          Alcotest.failf "arity %d mask %d: got %c want %c" arity mask
            (Sim.Logic.to_char got) (Sim.Logic.to_char expect)
      done)
    [ (Netlist.Gates.And, 7, fun bs -> List.for_all Fun.id bs);
      (Netlist.Gates.Or, 6, fun bs -> List.exists Fun.id bs);
      (Netlist.Gates.Nand, 5, fun bs -> not (List.for_all Fun.id bs));
      (Netlist.Gates.Nor, 5, fun bs -> not (List.exists Fun.id bs));
      (Netlist.Gates.Xor, 6, fun bs -> List.fold_left ( <> ) false bs);
      (Netlist.Gates.Xnor, 4, fun bs -> not (List.fold_left ( <> ) false bs)) ]

let test_mux2 () =
  let b = B.create ~name:"m" ~library:lib in
  let a = B.add_input b "a" in
  let c = B.add_input b "c" in
  let s = B.add_input b "s" in
  let out = Netlist.Gates.mux2 b ~sel:s ~a ~b_in:c ~prefix:"m" in
  B.add_output b "y" out;
  let d = B.freeze b in
  List.iter
    (fun (sv, av, cv, expect) ->
      let got =
        eval_design d
          [("a", Sim.Logic.of_bool av); ("c", Sim.Logic.of_bool cv);
           ("s", Sim.Logic.of_bool sv)]
      in
      check Alcotest.char
        (Printf.sprintf "mux s=%b" sv)
        (Sim.Logic.to_char (Sim.Logic.of_bool expect))
        (Sim.Logic.to_char got))
    [ (false, true, false, true); (false, false, true, false);
      (true, true, false, false); (true, false, true, true) ]

(* --- Rewrite --- *)

let test_rewrite_identity () =
  let d = sample () in
  let rw = Netlist.Rewrite.start d in
  D.fold_insts (fun i () -> Netlist.Rewrite.copy_inst rw i) d ();
  let d2 = Netlist.Rewrite.finish rw in
  check Alcotest.int "same inst count" (D.num_insts d) (D.num_insts d2);
  let s1 = Netlist.Stats.compute d and s2 = Netlist.Stats.compute d2 in
  check (Alcotest.float 1e-9) "same area" s1.Netlist.Stats.total_area
    s2.Netlist.Stats.total_area;
  (* behaviourally identical *)
  let stim = Sim.Stimulus.random ~seed:5 ~cycles:40 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  (match Sim.Equivalence.check ~reference:d ~dut:d2 ~reference_clocks:clocks
           ~dut_clocks:clocks ~stimulus:stim () with
   | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
   | Sim.Equivalence.Mismatch m ->
     Alcotest.failf "rewrite changed behaviour: %s"
       (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m))

let test_stats () =
  let s = Netlist.Stats.compute (sample ()) in
  check Alcotest.int "ffs" 2 s.Netlist.Stats.flip_flops;
  check Alcotest.int "latches" 0 s.Netlist.Stats.latches;
  check Alcotest.int "icgs" 1 s.Netlist.Stats.clock_gates;
  check Alcotest.int "comb" 2 s.Netlist.Stats.comb_cells;
  check Alcotest.bool "area positive" true (s.Netlist.Stats.total_area > 0.0)

let suite =
  [ Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "multiply driven rejected" `Quick test_multiply_driven_rejected;
    Alcotest.test_case "unknown pin rejected" `Quick test_unknown_pin_rejected;
    Alcotest.test_case "fresh nets unique" `Quick test_fresh_net_uniqueness;
    Alcotest.test_case "const sharing" `Quick test_const_sharing;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "comb cycle detection" `Quick test_comb_cycle_detection;
    Alcotest.test_case "net levels" `Quick test_net_levels;
    Alcotest.test_case "ff graph edges" `Quick test_ff_graph;
    Alcotest.test_case "ff graph self loop" `Quick test_ff_graph_self_loop;
    Alcotest.test_case "pi fanout" `Quick test_pi_fanout;
    Alcotest.test_case "clock trace" `Quick test_clock_trace;
    Alcotest.test_case "gating icg" `Quick test_gating_icg;
    Alcotest.test_case "check clean design" `Quick test_check_clean;
    Alcotest.test_case "check undriven" `Quick test_check_undriven;
    Alcotest.test_case "gate trees all ops" `Quick test_gates_wide_ops;
    Alcotest.test_case "mux2" `Quick test_mux2;
    Alcotest.test_case "rewrite identity" `Quick test_rewrite_identity;
    Alcotest.test_case "stats" `Quick test_stats ]

(* --- Optimize --- *)

let test_optimize_folds_and_sweeps () =
  let b = B.create ~name:"opt" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let zero = B.const b false in
  (* a & 0 = 0 feeds an OR that therefore passes [a] through *)
  let t1 = B.fresh_net b "t1" in
  ignore (B.add_cell b "g1" "AND2_X1" [("A1", a); ("A2", zero); ("Z", t1)]);
  let t2 = B.fresh_net b "t2" in
  ignore (B.add_cell b "g2" "OR2_X1" [("A1", t1); ("A2", a); ("Z", t2)]);
  (* a buffer in the data path *)
  let t3 = B.fresh_net b "t3" in
  ignore (B.add_cell b "g3" "BUF_X2" [("A", t2); ("Z", t3)]);
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", t3); ("Q", q)]);
  (* dead logic: an inverter nobody reads *)
  ignore (B.add_cell b "dead" "INV_X1" [("A", a); ("ZN", B.fresh_net b "unused")]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let d', stats = Netlist.Optimize.run d in
  check Alcotest.bool "folded" true (stats.Netlist.Optimize.folded >= 1);
  check Alcotest.bool "collapsed buffer" true (stats.Netlist.Optimize.collapsed >= 1);
  check Alcotest.bool "swept dead" true (stats.Netlist.Optimize.swept >= 1);
  let s = Netlist.Stats.compute d' in
  check Alcotest.bool "fewer comb cells" true
    (s.Netlist.Stats.comb_cells < (Netlist.Stats.compute d).Netlist.Stats.comb_cells);
  (match Netlist.Check.validate d' with
   | Ok () -> ()
   | Error es -> Alcotest.failf "optimized invalid: %s" (String.concat ";" es));
  let stim = Sim.Stimulus.random ~seed:9 ~cycles:60 ~toggle_probability:0.5 ["a"] in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  match Sim.Equivalence.check ~reference:d ~dut:d' ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:stim () with
  | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "optimize changed behaviour: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

let test_optimize_keeps_clock_buffers () =
  let b = B.create ~name:"ock" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let cb = B.fresh_net b "cb" in
  ignore (B.add_cell b "cbuf" "CLKBUF_X4" [("A", clk); ("Z", cb)]);
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", cb); ("D", a); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let d', _ = Netlist.Optimize.run d in
  check Alcotest.bool "clock buffer preserved" true
    (Netlist.Design.find_inst d' "cbuf" <> None)

let prop_optimize_equivalent =
  QCheck.Test.make ~name:"optimize preserves streams on generated circuits"
    ~count:8 QCheck.(int_range 0 500)
    (fun seed ->
      let spec = { Circuits.Generator.name = "oq"; seed; inputs = 5; outputs = 4;
                   layers = [|6; 5|]; fanin = 3; cone_depth = 3;
                   self_loop_fraction = 0.2; cross_feedback = 0.2; reuse = 0.3;
                   gated_fraction = 0.4; bank_size = 3; po_cones = 3;
                   frequency_mhz = 1000.0 }
      in
      let d = Circuits.Generator.synthesize spec in
      let d', _ = Netlist.Optimize.run d in
      let stim = Sim.Stimulus.random ~seed:(seed + 5) ~cycles:60
          ~toggle_probability:0.4 (Sim.Stimulus.inputs_of d) in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      match Sim.Equivalence.check ~reference:d ~dut:d' ~reference_clocks:clocks
              ~dut_clocks:clocks ~stimulus:stim () with
      | Sim.Equivalence.Equivalent _ -> true
      | Sim.Equivalence.Mismatch _ -> false)

let suite =
  suite
  @ [ Alcotest.test_case "optimize folds and sweeps" `Quick test_optimize_folds_and_sweeps;
      Alcotest.test_case "optimize keeps clock buffers" `Quick test_optimize_keeps_clock_buffers;
      QCheck_alcotest.to_alcotest prop_optimize_equivalent ]

(* --- Ff_graph against the per-register walk --- *)

(* The walk [Ff_graph.build] replaced, kept as its oracle: one fresh
   visited array per source net, the sequential instances whose data
   pin the walk reaches listed in the order it reaches them. *)
let reachable_seq_inputs d ~from =
  let visited = Array.make (D.num_nets d) false in
  let found = Hashtbl.create 16 in
  let order = ref [] in
  let rec walk net =
    if not visited.(net) then begin
      visited.(net) <- true;
      List.iter
        (fun (i, pin) ->
          match (D.cell d i).Cell_lib.Cell.kind with
          | Cell_lib.Cell.Combinational -> List.iter walk (D.output_nets d i)
          | Cell_lib.Cell.Flip_flop { data_pin; _ }
          | Cell_lib.Cell.Latch { data_pin; _ } ->
            if String.equal pin data_pin && not (Hashtbl.mem found i) then begin
              Hashtbl.add found i ();
              order := i :: !order
            end
          | Cell_lib.Cell.Clock_gate _ -> ())
        d.D.net_sinks.(net)
    end
  in
  walk from;
  List.rev !order

let ff_graph_matches_oracle d =
  let g = Netlist.Ff_graph.build d in
  let members = Array.of_list (D.sequential_insts d) in
  let position = Hashtbl.create 16 in
  Array.iteri (fun pos i -> Hashtbl.add position i pos) members;
  let reach net =
    List.filter_map (Hashtbl.find_opt position) (reachable_seq_inputs d ~from:net)
  in
  let fanout =
    Array.map
      (fun i -> match D.q_net_of d i with None -> [] | Some q -> reach q)
      members
  in
  let fanin = Array.make (Array.length members) [] in
  Array.iteri
    (fun u outs -> List.iter (fun v -> fanin.(v) <- u :: fanin.(v)) outs)
    fanout;
  let pis =
    List.filter (fun (p, _) -> not (D.is_clock_port d p)) d.D.primary_inputs
  in
  g.Netlist.Ff_graph.members = members
  && g.Netlist.Ff_graph.fanout = fanout
  && g.Netlist.Ff_graph.fanin = Array.map List.rev fanin
  && g.Netlist.Ff_graph.self_loop = Array.mapi List.mem fanout
  && g.Netlist.Ff_graph.pi_names = Array.of_list (List.map fst pis)
  && g.Netlist.Ff_graph.pi_fanout
     = Array.of_list (List.map (fun (_, n) -> reach n) pis)

(* generated designs with reconvergent cones, clock gates and self
   loops, in flip-flop form and converted (latches, three clocks) *)
let prop_ff_graph_equals_per_register_walks =
  QCheck.Test.make ~name:"ff graph equals per-register walks" ~count:30
    QCheck.(
      triple (int_bound 1_000_000)
        (array_of_size (QCheck.Gen.int_range 2 4) (int_range 2 8))
        (pair (float_range 0.1 0.6) (float_range 0.1 0.5)))
    (fun (seed, layers, (gated, self_loop)) ->
      let spec =
        { Circuits.Generator.name = Printf.sprintf "ffg%d" seed; seed;
          inputs = 5; outputs = 3; layers; fanin = 3; cone_depth = 4;
          self_loop_fraction = self_loop; cross_feedback = 0.25; reuse = 0.4;
          gated_fraction = gated; bank_size = 3; po_cones = 3;
          frequency_mhz = 1000.0 }
      in
      let d = Circuits.Generator.synthesize spec in
      let d3 = Phase3.Convert.to_three_phase d (Phase3.Assignment.solve d) in
      ff_graph_matches_oracle d && ff_graph_matches_oracle d3)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_ff_graph_equals_per_register_walks ]

(* --- Clocking.network against the walks it replaced --- *)

(* The walks [Clocking.network] and [Clocking.root_port] replaced, kept
   as their oracle: the simulators' breadth-first instance order from
   every clock port, one depth-first net walk per clock port, and the
   root of [trace_to_root] from a register's or clock gate's clock net. *)
let walks_through d i pin =
  let c = D.cell d i in
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Clock_gate { clock_pin; _ } -> String.equal pin clock_pin
  | Cell_lib.Cell.Combinational -> List.length (Cell_lib.Cell.input_pins c) = 1
  | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> false

let bfs_clock_order d =
  let order = ref [] in
  let seen_inst = Hashtbl.create 64 and seen_net = Hashtbl.create 64 in
  let frontier = Queue.create () in
  List.iter
    (fun port -> Option.iter (fun n -> Queue.add n frontier) (D.find_input d port))
    d.D.clock_ports;
  while not (Queue.is_empty frontier) do
    let net = Queue.pop frontier in
    if not (Hashtbl.mem seen_net net) then begin
      Hashtbl.add seen_net net ();
      List.iter
        (fun (i, pin) ->
          if walks_through d i pin && not (Hashtbl.mem seen_inst i) then begin
            Hashtbl.add seen_inst i ();
            order := i :: !order;
            List.iter (fun n -> Queue.add n frontier) (D.output_nets d i)
          end)
        d.D.net_sinks.(net)
    end
  done;
  Array.of_list (List.rev !order)

let port_nets d ~port =
  let visited = Hashtbl.create 64 in
  let rec walk net =
    if not (Hashtbl.mem visited net) then begin
      Hashtbl.add visited net ();
      List.iter
        (fun (i, pin) ->
          if walks_through d i pin then List.iter walk (D.output_nets d i))
        d.D.net_sinks.(net)
    end
  in
  Option.iter walk (D.find_input d port);
  visited

let traced_root d i =
  Option.bind (D.clock_net_of d i) (fun cn ->
      Option.map
        (fun t -> t.Netlist.Clocking.root_port)
        (Netlist.Clocking.trace_to_root d cn))

let network_matches_oracle d =
  let network = Netlist.Clocking.network d in
  let per_port = List.map (fun port -> port_nets d ~port) d.D.clock_ports in
  network.Netlist.Clocking.insts = bfs_clock_order d
  && List.for_all
       (fun n ->
         network.Netlist.Clocking.has_net n
         = List.exists (fun nets -> Hashtbl.mem nets n) per_port)
       (List.init (D.num_nets d) Fun.id)
  && List.for_all
       (fun i -> Netlist.Clocking.root_port d i = traced_root d i)
       (D.sequential_insts d @ D.clock_gate_insts d)

(* every clock network the flow reads: generated flip-flop designs with
   standard ICGs, their 3-phase conversion, the flow's clock-gated
   final (M1 and M2 ICGs) and the master-slave design *)
let prop_network_equals_old_walks =
  QCheck.Test.make ~name:"clock network equals the old walks" ~count:20
    QCheck.(pair (int_bound 1_000_000) (float_range 0.1 0.6))
    (fun (seed, gated) ->
      let spec =
        { Circuits.Generator.name = Printf.sprintf "ckn%d" seed; seed;
          inputs = 5; outputs = 3; layers = [| 5; 5 |]; fanin = 3;
          cone_depth = 3; self_loop_fraction = 0.2; cross_feedback = 0.2;
          reuse = 0.2; gated_fraction = gated; bank_size = 3; po_cones = 3;
          frequency_mhz = 1000.0 }
      in
      let d = Circuits.Generator.synthesize spec in
      let config =
        { (Phase3.Flow.default_config ~period:1.0) with
          Phase3.Flow.verify_equivalence = false;
          activity_cycles = 64;
          lint = false }
      in
      let flow = Phase3.Flow.run ~config d in
      List.for_all network_matches_oracle
        [ d; flow.Phase3.Flow.converted; flow.Phase3.Flow.final;
          Phase3.Master_slave.convert d ])

(* what the generated designs leave out: a buffer and an inverter on
   the clock path, a buffer after an ICG, two clock ports, and an M1
   gate whose P3 pin reads the first port's net (not walked: the gate
   joins the network through its CK pin, after the second port's
   buffer) *)
let test_network_hand_built () =
  let b = B.create ~name:"clocks" ~library:lib in
  let ck1 = B.add_input ~clock:true b "ck1" in
  let ck2 = B.add_input ~clock:true b "ck2" in
  let en = B.add_input b "en" and a = B.add_input b "a" in
  let net = B.fresh_net b in
  let n1 = net "n1" and n2 = net "n2" and gck = net "gck" and gckb = net "gckb" in
  let n3 = net "n3" and g3 = net "g3" in
  let q1 = net "q1" and q2 = net "q2" and q3 = net "q3" and q4 = net "q4" in
  let cell name c conns = ignore (B.add_cell b name c conns) in
  cell "b1" "CLKBUF_X4" [ ("A", ck1); ("Z", n1) ];
  cell "g1" "ICG_X1" [ ("CK", ck1); ("EN", en); ("GCK", gck) ];
  cell "m1" "ICGP3_X1" [ ("CK", n3); ("EN", en); ("P3", ck1); ("GCK", g3) ];
  cell "b3" "BUF_X2" [ ("A", ck2); ("Z", n3) ];
  cell "i1" "INV_X1" [ ("A", n1); ("ZN", n2) ];
  cell "b2" "BUF_X2" [ ("A", gck); ("Z", gckb) ];
  cell "r1" "DFF_X1" [ ("CK", n2); ("D", a); ("Q", q1) ];
  cell "r2" "DFF_X1" [ ("CK", gckb); ("D", q1); ("Q", q2) ];
  cell "l3" "LATH_X1" [ ("E", g3); ("D", q2); ("Q", q3) ];
  cell "r4" "DFF_X1" [ ("CK", a); ("D", q3); ("Q", q4) ];
  B.add_output b "y" q4;
  let d = B.freeze b in
  let network = Netlist.Clocking.network d in
  let name i = D.inst_name d i and find s = Option.get (D.find_inst d s) in
  check
    Alcotest.(list string)
    "breadth-first from ck1 then ck2" [ "b1"; "g1"; "b3"; "i1"; "b2"; "m1" ]
    (Array.to_list (Array.map name network.Netlist.Clocking.insts));
  check
    Alcotest.(list string)
    "network nets" [ "ck1"; "ck2"; "n1"; "n2"; "gck"; "gckb"; "n3"; "g3" ]
    (List.filter_map
       (fun n ->
         if network.Netlist.Clocking.has_net n then Some (D.net_name d n) else None)
       (List.init (D.num_nets d) Fun.id));
  check
    Alcotest.(list (option string))
    "root ports"
    [ Some "ck1"; Some "ck1"; Some "ck2"; None; Some "ck1"; Some "ck2" ]
    (List.map
       (fun s -> Netlist.Clocking.root_port d (find s))
       [ "r1"; "r2"; "l3"; "r4"; "g1"; "m1" ]);
  check Alcotest.bool "equals the old walks" true (network_matches_oracle d)

let suite =
  suite
  @ [ Alcotest.test_case "clock network hand-built" `Quick test_network_hand_built;
      QCheck_alcotest.to_alcotest prop_network_equals_old_walks ]

(* --- validate runs the error rules only --- *)

(* the verdict validate must give: the errors among every finding *)
let errors_of_diagnostics d =
  match Netlist.Check.errors (Netlist.Check.diagnostics d) with
  | [] -> Ok ()
  | e -> Error e

let same_verdict label d =
  check
    Alcotest.(result unit (list string))
    label (errors_of_diagnostics d) (Netlist.Check.validate d)

(* a design where [rules] fire, beside NET-005 warnings (the outputs
   [o] and [dangling] drive nothing) *)
let broken ~undriven ~loop ~unclocked =
  let b = B.create ~name:"broken" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", a); ("Q", q)]);
  ignore (B.add_cell b "n" "INV_X1" [("A", q); ("ZN", B.fresh_net b "dangling")]);
  if undriven then begin
    let floating = B.fresh_net b "floating" in
    ignore (B.add_cell b "u" "AND2_X1" [("A1", a); ("A2", floating); ("Z", B.fresh_net b "o")]);
    B.add_output b "z" (B.fresh_net b "unset")
  end;
  if loop then begin
    let n1 = B.fresh_net b "n1" and n2 = B.fresh_net b "n2" in
    ignore (B.add_cell b "g1" "NAND2_X1" [("A1", a); ("A2", n2); ("ZN", n1)]);
    ignore (B.add_cell b "g2" "INV_X1" [("A", n1); ("ZN", n2)]);
    B.add_output b "l" n1
  end;
  if unclocked then
    ignore
      (B.add_cell b "s" "DFF_X1" [("CK", a); ("D", q); ("Q", B.fresh_net b "s_q")]);
  B.add_output b "y" q;
  B.freeze b

let test_validate_error_rules () =
  List.iter
    (fun (label, undriven, loop, unclocked, rules) ->
      let d = broken ~undriven ~loop ~unclocked in
      let diagnostics = Netlist.Check.diagnostics d in
      let fired =
        List.sort_uniq compare
          (List.filter_map
             (fun dg ->
               if Lint_core.Diagnostic.is_error dg then
                 Some dg.Lint_core.Diagnostic.rule
               else None)
             diagnostics)
      in
      check Alcotest.(list string) (label ^ ": rules") rules fired;
      if not
           (List.exists
              (fun dg -> String.equal dg.Lint_core.Diagnostic.rule "NET-005")
              diagnostics)
      then Alcotest.failf "%s: no warning beside the errors" label;
      same_verdict label d)
    [ ("clean", false, false, false, []);
      ("NET-001", true, false, false, ["NET-001"]);
      ("NET-002", false, true, false, ["NET-002"]);
      ("NET-003", false, false, true, ["NET-003"]);
      ("all three", true, true, true, ["NET-001"; "NET-002"; "NET-003"]) ]

let test_validate_suite () =
  List.iter
    (fun bench ->
      same_verdict bench.Circuits.Suite.bench_name (bench.Circuits.Suite.build ()))
    (Circuits.Suite.all ())

let suite =
  suite
  @ [ Alcotest.test_case "validate = errors of diagnostics, hand-built" `Quick
        test_validate_error_rules;
      Alcotest.test_case "validate = errors of diagnostics, suite" `Quick
        test_validate_suite ]
