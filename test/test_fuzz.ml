(* Fuzz/robustness tests: malformed input must raise the module's typed
   error (never a crash or an unrelated exception, [Invalid_argument]
   from the netlist builder included), and core pipelines behave
   deterministically. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

(* printable-ish random strings *)
let garbage_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 120))

let prop_bench_parser_total =
  QCheck.Test.make ~name:"bench parser: error or parse, never crash" ~count:300
    (QCheck.make garbage_gen)
    (fun src ->
      match Netlist_io.Bench_format.parse ~name:"f" ~library:lib src with
      | _ -> true
      | exception Netlist_io.Bench_format.Error _ -> true
      | exception _ -> false)

let prop_verilog_parser_total =
  QCheck.Test.make ~name:"verilog parser: error or parse, never crash"
    ~count:300 (QCheck.make garbage_gen)
    (fun src ->
      match Netlist_io.Verilog.parse ~library:lib src with
      | _ -> true
      | exception Netlist_io.Verilog.Error _ -> true
      | exception _ -> false)

let prop_liberty_parser_total =
  QCheck.Test.make ~name:"liberty parser: error or parse, never crash"
    ~count:300 (QCheck.make garbage_gen)
    (fun src ->
      match Cell_lib.Liberty.parse src with
      | _ -> true
      | exception Cell_lib.Liberty.Error _ -> true
      | exception Cell_lib.Expr.Parse_error _ -> true
      | exception _ -> false)

let prop_expr_parser_total =
  QCheck.Test.make ~name:"expr parser: error or parse, never crash" ~count:300
    (QCheck.make garbage_gen)
    (fun src ->
      match Cell_lib.Expr.parse src with
      | _ -> true
      | exception Cell_lib.Expr.Parse_error _ -> true
      | exception _ -> false)

(* structured-ish fuzz: mutate a valid bench source *)
let mutate_gen =
  let base = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ns = DFF(n)\nn = NAND(a, b)\ny = NOT(s)\n" in
  QCheck.Gen.(
    map
      (fun (pos, c) ->
        let pos = pos mod String.length base in
        String.mapi (fun i old -> if i = pos then c else old) base)
      (pair (int_bound 1000) (map Char.chr (int_range 32 126))))

let prop_bench_mutations_total =
  QCheck.Test.make ~name:"bench parser: single-char mutations survive"
    ~count:400 (QCheck.make mutate_gen)
    (fun src ->
      match Netlist_io.Bench_format.parse ~name:"m" ~library:lib src with
      | _ -> true
      | exception Netlist_io.Bench_format.Error _ -> true
      | exception _ -> false)

(* the same for a structural Verilog source: a mutated pin name, a
   second driver or a repeated pin is a located error *)
let verilog_mutate_gen =
  let base =
    "module m (clk, a, en, y);\n  input clk;\n  input a;\n  input en;\n\
    \  output y;\n  wire g;\n  wire n;\n\
    \  ICG_X1 cg (.CK(clk), .EN(en), .GCK(g));\n\
    \  INV_X1 u (.A(a), .ZN(n));\n  DFF_X1 r (.CK(g), .D(n), .Q(y));\n\
     endmodule\n"
  in
  QCheck.Gen.(
    map
      (fun (pos, c) ->
        let pos = pos mod String.length base in
        String.mapi (fun i old -> if i = pos then c else old) base)
      (pair (int_bound 1000) (map Char.chr (int_range 32 126))))

let prop_verilog_mutations_total =
  QCheck.Test.make ~name:"verilog parser: single-char mutations survive"
    ~count:400 (QCheck.make verilog_mutate_gen)
    (fun src ->
      match Netlist_io.Verilog.parse ~library:lib src with
      | _ -> true
      | exception Netlist_io.Verilog.Error _ -> true
      | exception _ -> false)

(* determinism: two engines over the same design and stream agree *)
let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine is deterministic" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let spec = { Circuits.Generator.name = "det"; seed; inputs = 5; outputs = 4;
                   layers = [|5; 5|]; fanin = 3; cone_depth = 3;
                   self_loop_fraction = 0.2; cross_feedback = 0.2; reuse = 0.2;
                   gated_fraction = 0.3; bank_size = 3; po_cones = 3;
                   frequency_mhz = 1000.0 }
      in
      let d = Circuits.Generator.synthesize spec in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      let stim = Sim.Stimulus.random ~seed:(seed + 1) ~cycles:30
          ~toggle_probability:0.5 (Sim.Stimulus.inputs_of d) in
      let run () =
        Sim.Engine.run_stream (Sim.Engine.create d ~clocks) stim
      in
      run () = run ())

(* hold fix gives up gracefully on an unfixable margin *)
let test_hold_fix_unfixable () =
  let b = Netlist.Builder.create ~name:"uh" ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let a = Netlist.Builder.add_input b "a" in
  let q1 = Netlist.Builder.fresh_net b "q1" in
  ignore (Netlist.Builder.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  let q2 = Netlist.Builder.fresh_net b "q2" in
  ignore (Netlist.Builder.add_cell b "r2" "DFF_X1" [("CK", clk); ("D", q1); ("Q", q2)]);
  Netlist.Builder.add_output b "y" q2;
  let d = Netlist.Builder.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  (* an absurd margin cannot be met within the iteration cap *)
  let _, stats = Sta.Hold_fix.run ~skew:0.0 ~hold_margin:5.0 ~max_iterations:2
      d ~clocks in
  check Alcotest.bool "reports not fixed" false stats.Sta.Hold_fix.fixed;
  check Alcotest.bool "still added padding" true (stats.Sta.Hold_fix.buffers_added > 0)

(* clock tracing crosses explicit clock buffers *)
let test_clock_trace_through_buffer () =
  let b = Netlist.Builder.create ~name:"cb" ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let buf_out = Netlist.Builder.fresh_net b "clkb" in
  ignore (Netlist.Builder.add_cell b "cb0" "CLKBUF_X4" [("A", clk); ("Z", buf_out)]);
  let a = Netlist.Builder.add_input b "a" in
  let q = Netlist.Builder.fresh_net b "q" in
  ignore (Netlist.Builder.add_cell b "r" "DFF_X1" [("CK", buf_out); ("D", a); ("Q", q)]);
  Netlist.Builder.add_output b "y" q;
  let d = Netlist.Builder.freeze b in
  (match Netlist.Check.validate d with
   | Ok () -> ()
   | Error es -> Alcotest.failf "buffered clock rejected: %s" (String.concat ";" es));
  let r = Option.get (Netlist.Design.find_inst d "r") in
  match Netlist.Clocking.trace_to_root d (Option.get (Netlist.Design.clock_net_of d r)) with
  | Some { Netlist.Clocking.root_port; elements } ->
    check Alcotest.string "root through buffer" "clk" root_port;
    check Alcotest.int "one buffer element" 1 (List.length elements)
  | None -> Alcotest.fail "trace failed through clock buffer"

(* liberty semantic errors *)
let test_liberty_conflicting_groups () =
  let src = {|
library (x) {
  cell (BAD) {
    ff (IQ) { clocked_on : "CK" ; next_state : "D" ; }
    latch (IQ) { enable : "E" ; data_in : "D" ; }
    pin (CK) { direction : input ; capacitance : 1.0 ; }
  }
}|}
  in
  (try
     ignore (Cell_lib.Liberty.parse src);
     Alcotest.fail "conflicting ff+latch groups must be rejected"
   with Cell_lib.Liberty.Error _ -> ());
  let bad_num = "library (x) { cell (A) { area : banana ; } }" in
  (try
     ignore (Cell_lib.Liberty.parse bad_num);
     Alcotest.fail "non-numeric area must be rejected"
   with Cell_lib.Liberty.Error _ -> ())

let suite =
  [ QCheck_alcotest.to_alcotest prop_bench_parser_total;
    QCheck_alcotest.to_alcotest prop_verilog_parser_total;
    QCheck_alcotest.to_alcotest prop_liberty_parser_total;
    QCheck_alcotest.to_alcotest prop_expr_parser_total;
    QCheck_alcotest.to_alcotest prop_bench_mutations_total;
    QCheck_alcotest.to_alcotest prop_verilog_mutations_total;
    QCheck_alcotest.to_alcotest prop_engine_deterministic;
    Alcotest.test_case "hold fix unfixable" `Quick test_hold_fix_unfixable;
    Alcotest.test_case "clock trace through buffer" `Quick test_clock_trace_through_buffer;
    Alcotest.test_case "liberty conflicting groups" `Quick test_liberty_conflicting_groups ]
