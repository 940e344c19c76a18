(* Tests for the .bench and Verilog-subset readers/writers, including
   behavioural roundtrip properties on generated circuits. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

let bench_src = {|
# comment line
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
s0 = DFF(n2)
s1 = DFF(s0)
n1 = NAND(a, b, c)     # wide gate decomposes
n2 = XOR(n1, s1)
y = NOT(s0)
z = BUFF(s1)
|}

let test_bench_parse () =
  let d = Netlist_io.Bench_format.parse ~name:"t" ~library:lib bench_src in
  let s = Netlist.Stats.compute d in
  check Alcotest.int "ffs" 2 s.Netlist.Stats.flip_flops;
  check Alcotest.int "primary inputs (clock added)" 4
    (List.length d.Netlist.Design.primary_inputs);
  check Alcotest.bool "clock port" true (Netlist.Design.is_clock_port d "clock");
  check Alcotest.int "outputs" 2 (List.length d.Netlist.Design.primary_outputs);
  match Netlist.Check.validate d with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invalid: %s" (String.concat ";" es)

let test_bench_errors () =
  let expect_error src =
    try
      ignore (Netlist_io.Bench_format.parse ~name:"x" ~library:lib src);
      Alcotest.fail "expected Bench_format.Error"
    with Netlist_io.Bench_format.Error _ -> ()
  in
  expect_error "INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n";
  expect_error "y = AND(a, b)\nOUTPUT(y)\n";          (* undefined signals *)
  expect_error "INPUT(a)\nINPUT(a)\n";                 (* duplicate input *)
  expect_error "INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n"  (* DFF arity *)

let test_bench_roundtrip_behaviour () =
  let d = Netlist_io.Bench_format.parse ~name:"t" ~library:lib bench_src in
  let text = Netlist_io.Bench_format.write d in
  let d2 = Netlist_io.Bench_format.parse ~name:"t2" ~library:lib text in
  let stim = Sim.Stimulus.random ~seed:3 ~cycles:60 ~toggle_probability:0.4
      (Sim.Stimulus.inputs_of d) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clock" in
  match Sim.Equivalence.check ~reference:d ~dut:d2 ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:stim () with
  | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "no shift" 0 shift
  | Sim.Equivalence.Mismatch m ->
    Alcotest.failf "bench roundtrip changed behaviour: %s"
      (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m)

let test_bench_write_rejects_latches () =
  let b = Netlist.Builder.create ~name:"l" ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let a = Netlist.Builder.add_input b "a" in
  let q = Netlist.Builder.fresh_net b "q" in
  ignore (Netlist.Builder.add_cell b "l0" "LATH_X1" [("E", clk); ("D", a); ("Q", q)]);
  Netlist.Builder.add_output b "y" q;
  let d = Netlist.Builder.freeze b in
  try
    ignore (Netlist_io.Bench_format.write d);
    Alcotest.fail "expected Error for latch"
  with Netlist_io.Bench_format.Error _ -> ()

let verilog_src = {|
// @clocks ck
module top (ck, a, b, y, z);
  input ck;
  input a, b;
  output y;
  output z;
  wire n1, q0;
  NAND2_X1 u1 (.A1(a), .A2(b), .ZN(n1));
  DFF_X1 r0 (.CK(ck), .D(n1), .Q(q0));
  assign y = q0;
  MUX2_X1 u2 (.A(q0), .B(a), .S(b), .Z(z));
endmodule
|}

let test_verilog_parse () =
  let d = Netlist_io.Verilog.parse ~library:lib verilog_src in
  check Alcotest.string "module name" "top" d.Netlist.Design.design_name;
  check Alcotest.bool "clock from comment" true (Netlist.Design.is_clock_port d "ck");
  let s = Netlist.Stats.compute d in
  check Alcotest.int "one ff" 1 s.Netlist.Stats.flip_flops;
  check Alcotest.int "two comb" 2 s.Netlist.Stats.comb_cells

let test_verilog_constants () =
  let src = {|
module c (a, y);
  input a;
  output y;
  wire t;
  AND2_X1 u (.A1(a), .A2(t), .Z(y));
  assign t = 1'b1;
endmodule
|}
  in
  let d = Netlist_io.Verilog.parse ~library:lib src in
  match Netlist.Check.validate d with
  | Ok () -> ()
  | Error es -> Alcotest.failf "constant design invalid: %s" (String.concat ";" es)

let test_verilog_errors () =
  let expect_error src =
    try
      ignore (Netlist_io.Verilog.parse ~library:lib src);
      Alcotest.fail "expected Verilog.Error"
    with Netlist_io.Verilog.Error _ -> ()
  in
  expect_error "module m (a); input a; NOSUCHCELL u (.A(a)); endmodule";
  expect_error "module m (a); input a; INV_X1 u (.A(undeclared), .ZN(a)); endmodule";
  expect_error "module m (a); input a;"  (* missing endmodule *)

let test_verilog_roundtrip_generated () =
  (* random generated circuits survive a write/parse cycle behaviourally *)
  List.iter
    (fun seed ->
      let spec = { Circuits.Generator.name = Printf.sprintf "rt%d" seed;
                   seed; inputs = 5; outputs = 4; layers = [|5; 4|];
                   fanin = 3; cone_depth = 3; self_loop_fraction = 0.2;
                   cross_feedback = 0.2; reuse = 0.2; gated_fraction = 0.3;
                   bank_size = 3; po_cones = 3; frequency_mhz = 1000.0 }
      in
      let d = Circuits.Generator.synthesize spec in
      let d2 = Netlist_io.Verilog.parse ~library:lib (Netlist_io.Verilog.write d) in
      let stim = Sim.Stimulus.random ~seed:(seed + 70) ~cycles:50
          ~toggle_probability:0.4 (Sim.Stimulus.inputs_of d) in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      match Sim.Equivalence.check ~reference:d ~dut:d2 ~reference_clocks:clocks
              ~dut_clocks:clocks ~stimulus:stim () with
      | Sim.Equivalence.Equivalent _ -> ()
      | Sim.Equivalence.Mismatch m ->
        Alcotest.failf "seed %d: %s" seed
          (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m))
    [1; 2; 3; 4; 5]

let test_verilog_preserves_converted_design () =
  (* a converted 3-phase design (latches, ICGs, three clocks) roundtrips *)
  let src = Netlist_io.Bench_format.parse ~name:"t" ~library:lib bench_src in
  let config = { (Phase3.Flow.default_config ~period:1.0) with
                 Phase3.Flow.verify_equivalence = false } in
  let r = Phase3.Flow.run ~config src in
  let final = r.Phase3.Flow.final in
  let d2 = Netlist_io.Verilog.parse ~library:lib (Netlist_io.Verilog.write final) in
  check (Alcotest.list Alcotest.string) "clock ports preserved"
    final.Netlist.Design.clock_ports d2.Netlist.Design.clock_ports;
  let s1 = Netlist.Stats.compute final and s2 = Netlist.Stats.compute d2 in
  check Alcotest.int "latches preserved" s1.Netlist.Stats.latches
    s2.Netlist.Stats.latches;
  check Alcotest.int "icgs preserved" s1.Netlist.Stats.clock_gates
    s2.Netlist.Stats.clock_gates

let suite =
  [ Alcotest.test_case "bench parse" `Quick test_bench_parse;
    Alcotest.test_case "bench errors" `Quick test_bench_errors;
    Alcotest.test_case "bench roundtrip behaviour" `Quick test_bench_roundtrip_behaviour;
    Alcotest.test_case "bench write rejects latches" `Quick test_bench_write_rejects_latches;
    Alcotest.test_case "verilog parse" `Quick test_verilog_parse;
    Alcotest.test_case "verilog constants" `Quick test_verilog_constants;
    Alcotest.test_case "verilog errors" `Quick test_verilog_errors;
    Alcotest.test_case "verilog roundtrip generated" `Quick test_verilog_roundtrip_generated;
    Alcotest.test_case "verilog roundtrips converted design" `Quick
      test_verilog_preserves_converted_design ]

let test_bench_wide_gate_decomposition () =
  (* a 7-input AND becomes a tree of available cells but keeps behaviour *)
  let src =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\n\
     OUTPUT(y)\ny = AND(a, b, c, d, e, f, g)\n"
  in
  let d = Netlist_io.Bench_format.parse ~name:"wide" ~library:lib src in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"__none" in
  let engine = Sim.Engine.create d ~clocks in
  let inputs = ["a"; "b"; "c"; "d"; "e"; "f"; "g"] in
  for mask = 0 to 127 do
    let vals =
      List.mapi (fun k name -> (name, Sim.Logic.of_bool ((mask lsr k) land 1 = 1)))
        inputs
    in
    let out = List.assoc "y" (Sim.Engine.run_cycle engine vals) in
    let expect = Sim.Logic.of_bool (mask = 127) in
    if not (Sim.Logic.equal out expect) then
      Alcotest.failf "mask %d: got %c" mask (Sim.Logic.to_char out)
  done

let suite =
  suite
  @ [ Alcotest.test_case "bench wide gate decomposition" `Quick
        test_bench_wide_gate_decomposition ]

(* A malformed netlist is the reader's located error, never an
   [Invalid_argument] from the builder: an unknown pin, a pin connected
   twice and a second driver each name the line and column of the
   offending connection. *)
let test_verilog_connection_errors () =
  let expect ~line ~col ~says body =
    let src =
      "module m (clk, a, b, en, y);\n  input clk;\n  input a;\n  input b;\n\
      \  input en;\n  output y;\n  wire n;\n  wire g;\n" ^ body ^ "endmodule\n"
    in
    match Netlist_io.Verilog.parse ~file:"m.v" ~library:lib src with
    | _ -> Alcotest.failf "accepted: %s" body
    | exception Netlist_io.Verilog.Error (Some loc, msg) ->
      check Alcotest.(pair int int) ("position of " ^ says) (line, col)
        (loc.Netlist_io.Srcloc.line, loc.Netlist_io.Srcloc.col);
      if not (Qor.Diff.contains msg says) then
        Alcotest.failf "%S does not say %S" msg says
    | exception Netlist_io.Verilog.Error (None, msg) ->
      Alcotest.failf "unlocated: %s" msg
  in
  expect ~line:9 ~col:25 ~says:"cell ICG_X1 has no pin ZZ"
    "  ICG_X1 cg (.CK(clk), .ZZ(clk), .EN(en), .GCK(g));\n";
  expect ~line:9 ~col:25 ~says:"pin CK of instance cg is connected twice"
    "  ICG_X1 cg (.CK(clk), .CK(clk), .EN(en), .GCK(g));\n";
  expect ~line:10 ~col:22
    ~says:"pin ZN of instance u2 drives net n, which is already driven at m.v:9:22"
    "  INV_X1 u1 (.A(a), .ZN(n));\n  INV_X1 u2 (.A(b), .ZN(n));\n";
  expect ~line:9 ~col:22
    ~says:"pin ZN of instance u1 drives net a, which is already driven at m.v:3:3"
    "  INV_X1 u1 (.A(b), .ZN(a));\n";
  expect ~line:10 ~col:10
    ~says:"assign n drives net n, which is already driven at m.v:9:22"
    "  INV_X1 u1 (.A(a), .ZN(n));\n  assign n = b;\n";
  expect ~line:10 ~col:22
    ~says:"pin ZN of instance u1 drives net n, which is already driven at m.v:9:10"
    "  assign n = 1'b1;\n  INV_X1 u1 (.A(a), .ZN(n));\n";
  expect ~line:9 ~col:22 ~says:"pin ZN of instance u1 drives 1'b0, which is a constant"
    "  INV_X1 u1 (.A(a), .ZN(1'b0));\n"

let test_bench_more_errors () =
  let expect ~says src =
    match Netlist_io.Bench_format.parse ~name:"x" ~library:lib src with
    | _ -> Alcotest.failf "accepted: %S" src
    | exception Netlist_io.Bench_format.Error msg ->
      check Alcotest.string "message" says msg
  in
  expect ~says:"line 1: missing ')' in \"INPUT(a\"" "INPUT(a\n";
  expect ~says:"line 2: duplicate INPUT(a)" "INPUT(a)\nINPUT(a)\n";
  expect ~says:"line 4: y multiply defined"
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = AND(a, a)\n";
  expect ~says:"line 4: NOT takes one input, got 2"
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n";
  expect ~says:"line 4: duplicate OUTPUT(y)"
    "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nOUTPUT(y)\n"

let test_builder_repeated_pin () =
  let b = Netlist.Builder.create ~name:"r" ~library:lib in
  let a = Netlist.Builder.add_input b "a" in
  let y = Netlist.Builder.fresh_net b "y" in
  match Netlist.Builder.add_cell b "u" "INV_X1" [("A", a); ("A", a); ("ZN", y)] with
  | _ -> Alcotest.fail "a pin connected twice was accepted"
  | exception Invalid_argument msg ->
    check Alcotest.string "message"
      "Builder.add_instance u: pin A connected twice" msg

(* In a file with DFFs, INPUT(clock) declares the implicit clock port:
   the design converts on one clock, and a DFF reading the clock is the
   validate stage's refusal *)
let test_bench_implicit_clock () =
  let parse src = Netlist_io.Bench_format.parse ~name:"ck" ~library:lib src in
  let config = Phase3.Flow.default_config ~period:1.0 in
  let d = parse "INPUT(clock)\nINPUT(a)\nOUTPUT(y)\ny = DFF(a)\n" in
  check Alcotest.(list string) "clock ports" [ "clock" ] d.Netlist.Design.clock_ports;
  check Alcotest.(list string) "inputs" [ "clock"; "a" ]
    (List.map fst d.Netlist.Design.primary_inputs);
  (match (Phase3.Flow.run ~config d).Phase3.Flow.equivalence with
   | Some (Sim.Equivalence.Equivalent _) -> ()
   | Some (Sim.Equivalence.Mismatch _) | None -> Alcotest.fail "not equivalent");
  match Phase3.Flow.run ~config (parse "INPUT(clock)\nOUTPUT(y)\ny = DFF(clock)\n") with
  | _ -> Alcotest.fail "a DFF reading the clock converted"
  | exception Phase3.Flow.Flow_error msg ->
    if not (Qor.Diff.contains msg "validate stage: data logic reads clock net clock")
    then Alcotest.failf "refused by another stage: %s" msg

(* a port that is both an input and an output is refused: by each
   reader with its location, and by the builder *)
let test_port_both_ways () =
  (match
     Netlist_io.Bench_format.parse ~name:"io" ~library:lib "INPUT(a)\nOUTPUT(a)\n"
   with
   | _ -> Alcotest.fail ".bench: accepted"
   | exception Netlist_io.Bench_format.Error msg ->
     check Alcotest.string ".bench" "line 2: a is both an INPUT and an OUTPUT" msg);
  (match
     Netlist_io.Verilog.parse ~file:"io.v" ~library:lib
       "module io (a);\n  input a;\n  output a;\nendmodule\n"
   with
   | _ -> Alcotest.fail "Verilog: accepted"
   | exception Netlist_io.Verilog.Error (Some loc, msg) ->
     check Alcotest.(pair int int) "Verilog position" (3, 3)
       (loc.Netlist_io.Srcloc.line, loc.Netlist_io.Srcloc.col);
     if not (Qor.Diff.contains msg "a is declared both input and output") then
       Alcotest.failf "Verilog: %S" msg
   | exception Netlist_io.Verilog.Error (None, msg) ->
     Alcotest.failf "Verilog: unlocated: %s" msg);
  let b = Netlist.Builder.create ~name:"io" ~library:lib in
  let a = Netlist.Builder.add_input b "a" in
  match Netlist.Builder.add_output b "a" a with
  | () -> Alcotest.fail "builder: accepted"
  | exception Invalid_argument msg ->
    check Alcotest.string "builder" "Builder.add_output: a is already an input port"
      msg

let suite =
  suite
  @ [ Alcotest.test_case "verilog connection errors are located" `Quick
        test_verilog_connection_errors;
      Alcotest.test_case "bench errors name their line" `Quick
        test_bench_more_errors;
      Alcotest.test_case "builder refuses a repeated pin" `Quick
        test_builder_repeated_pin;
      Alcotest.test_case "bench INPUT(clock) is the implicit clock" `Quick
        test_bench_implicit_clock;
      Alcotest.test_case "a port both input and output is refused" `Quick
        test_port_both_ways ]

(* The writer's bytes on what the RTL goldens lack: an output port
   whose net has another name (an internal net and an input net), one
   whose net has its name, and constant nets, read and unread. *)
let writer_golden = {|// @clocks clk
module small (clk, a, y, w, pass);
  input clk;
  input a;
  output y;
  output w;
  output pass;
  wire tie1;
  wire tie0;
  wire q;
  assign tie1 = 1'b1;
  assign tie0 = 1'b0;
  AND2_X1 g (.A1(a), .A2(tie1), .Z(w));
  DFF_X1 r (.CK(clk), .D(w), .Q(q));
  assign y = q;
  assign pass = a;
endmodule
|}

let test_verilog_writer_golden () =
  let b = Netlist.Builder.create ~name:"small" ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let a = Netlist.Builder.add_input b "a" in
  let one = Netlist.Builder.const b true in
  ignore (Netlist.Builder.const b false : Netlist.Design.net);
  let q = Netlist.Builder.fresh_net b "q" and w = Netlist.Builder.fresh_net b "w" in
  ignore (Netlist.Builder.add_cell b "g" "AND2_X1" [("A1", a); ("A2", one); ("Z", w)]);
  ignore (Netlist.Builder.add_cell b "r" "DFF_X1" [("CK", clk); ("D", w); ("Q", q)]);
  Netlist.Builder.add_output b "y" q;
  Netlist.Builder.add_output b "w" w;
  Netlist.Builder.add_output b "pass" a;
  check Alcotest.string "bytes" writer_golden
    (Netlist_io.Verilog.write (Netlist.Builder.freeze b))

let suite =
  suite
  @ [ Alcotest.test_case "verilog writer golden: aliases and constants" `Quick
        test_verilog_writer_golden ]
