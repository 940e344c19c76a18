(* Tests for the simulation substrate: logic values, clock waveforms, the
   event-driven engine's sequential semantics, stimulus and equivalence. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder
module L = Sim.Logic

(* --- Logic --- *)

let test_logic_tables () =
  check Alcotest.char "and 1x" 'x' (L.to_char (L.land_ L.L1 L.LX));
  check Alcotest.char "and 0x" '0' (L.to_char (L.land_ L.L0 L.LX));
  check Alcotest.char "or 1x" '1' (L.to_char (L.lor_ L.L1 L.LX));
  check Alcotest.char "or 0x" 'x' (L.to_char (L.lor_ L.L0 L.LX));
  check Alcotest.char "xor 1x" 'x' (L.to_char (L.lxor_ L.L1 L.LX));
  check Alcotest.char "not x" 'x' (L.to_char (L.lnot L.LX));
  check Alcotest.bool "rising" true (L.rising ~from_:L.L0 ~to_:L.L1);
  check Alcotest.bool "x to 1 is not an edge" false (L.rising ~from_:L.LX ~to_:L.L1)

(* --- Clock_spec --- *)

let test_clock_events () =
  let spec = Sim.Clock_spec.three_phase ~gap:0.04 ~period:3.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" () in
  let events = Sim.Clock_spec.events spec in
  check Alcotest.int "six events (p3 fall shares t=0 slot alone)" 6
    (List.length events);
  (* sorted ascending *)
  let times = List.map fst events in
  check Alcotest.bool "sorted" true
    (List.sort compare times = times);
  (* p1 closes at T/3 *)
  check (Alcotest.option (Alcotest.float 1e-9)) "p1 closing" (Some 1.0)
    (Sim.Clock_spec.closing_time spec "p1")

let test_clock_levels () =
  let spec = Sim.Clock_spec.single ~period:2.0 ~port:"clk" in
  check (Alcotest.option Alcotest.bool) "high early" (Some true)
    (Sim.Clock_spec.level_at spec "clk" 0.5);
  check (Alcotest.option Alcotest.bool) "low late" (Some false)
    (Sim.Clock_spec.level_at spec "clk" 1.5);
  check (Alcotest.option Alcotest.bool) "periodic" (Some true)
    (Sim.Clock_spec.level_at spec "clk" 4.3);
  check (Alcotest.option Alcotest.bool) "unknown port" None
    (Sim.Clock_spec.level_at spec "nope" 0.0)

(* --- Engine: flip-flop semantics --- *)

let ff_chain () =
  let b = B.create ~name:"chain" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" in
  let q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "f1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  ignore (B.add_cell b "f2" "DFF_X1" [("CK", clk); ("D", q1); ("Q", q2)]);
  B.add_output b "y" q2;
  B.freeze b

let test_ff_chain_latency () =
  let d = ff_chain () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk") in
  let inputs = [L.L1; L.L0; L.L1; L.L1; L.L0; L.L0; L.L1] in
  let outs = List.map (fun v -> List.assoc "y" (Sim.Engine.run_cycle engine [("a", v)])) inputs in
  (* y at cycle k equals a at cycle k-2 (simultaneous-capture semantics) *)
  List.iteri
    (fun k out ->
      if k >= 2 then
        check Alcotest.char (Printf.sprintf "cycle %d" k)
          (L.to_char (List.nth inputs (k - 2))) (L.to_char out))
    outs

let test_ff_simultaneous_capture () =
  (* shift register: f2 must capture f1's OLD value on the shared edge *)
  let d = ff_chain () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk") in
  ignore (Sim.Engine.run_cycle engine [("a", L.L1)]);
  ignore (Sim.Engine.run_cycle engine [("a", L.L0)]);
  (* after 2 cycles: q2 = a(0) only if captures were simultaneous *)
  let out = Sim.Engine.run_cycle engine [("a", L.L0)] in
  check Alcotest.char "no shoot-through" '1' (L.to_char (List.assoc "y" out))

(* --- Engine: latch semantics --- *)

let test_latch_follows_and_holds () =
  let b = B.create ~name:"lat" ~library:lib in
  let en = B.add_input ~clock:true b "en" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "l0" "LATH_X1" [("E", en); ("D", a); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  (* enable high during the first half of each period *)
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"en") in
  let y1 = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1)]) in
  (* at end of cycle the latch is opaque and holds the value sampled while
     open *)
  check Alcotest.char "held 1" '1' (L.to_char y1);
  let y2 = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L0)]) in
  check Alcotest.char "follows to 0" '0' (L.to_char y2)

(* --- Engine: ICG behaviour --- *)

let gated_reg style_cell =
  let b = B.create ~name:"g" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let p3 = B.add_input ~clock:true b "p3" in
  let en = B.add_input b "en" in
  let a = B.add_input b "a" in
  let gck = B.fresh_net b "gck" in
  let conns = [("CK", clk); ("EN", en); ("GCK", gck)] in
  let conns =
    if String.equal style_cell "ICGP3_X1" then ("P3", p3) :: conns else conns
  in
  ignore (B.add_cell b "cg" style_cell conns);
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", gck); ("D", a); ("Q", q)]);
  B.add_output b "y" q;
  (B.freeze b, gck)

let ms_clocks = Sim.Clock_spec.master_slave ~period:1.0 ~clk:"clk" ~clkbar:"p3"

let test_icg_standard_gates_pulses () =
  let d, gck = gated_reg "ICG_X1" in
  let engine = Sim.Engine.create d ~clocks:ms_clocks in
  (* enable low: no gated pulses, register holds *)
  ignore (Sim.Engine.run_cycle engine [("en", L.L0); ("a", L.L1)]);
  ignore (Sim.Engine.run_cycle engine [("en", L.L0); ("a", L.L1)]);
  let toggles_when_off = (Sim.Engine.toggles engine).(gck) in
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("en", L.L1); ("a", L.L1)]) in
  check Alcotest.int "gck silent while disabled" 0 toggles_when_off;
  check Alcotest.char "held reset value while gated" '0' (L.to_char y);
  (* enable captured, next cycle the register takes the data *)
  let y2 = List.assoc "y" (Sim.Engine.run_cycle engine [("en", L.L1); ("a", L.L1)]) in
  check Alcotest.char "captures once enabled" '1' (L.to_char y2)

let test_icg_glitch_free_vs_latchless () =
  (* the standard ICG ignores an enable that rises while CK is high; the
     latch-less M2 cell propagates it (that is the hazard the paper's
     condition must rule out) — both behaviours are modelled *)
  let d_std, gck_std = gated_reg "ICG_X1" in
  let d_nl, gck_nl = gated_reg "ICGNL_X1" in
  ignore gck_std;
  ignore gck_nl;
  (* behavioural difference is observable on enables toggling with data;
     here we just verify both simulate and gate when EN = 0 *)
  List.iter
    (fun d ->
      let engine = Sim.Engine.create d ~clocks:ms_clocks in
      ignore (Sim.Engine.run_cycle engine [("en", L.L0); ("a", L.L1)]);
      let y = List.assoc "y" (Sim.Engine.run_cycle engine [("en", L.L0); ("a", L.L1)]) in
      check Alcotest.char "gated off" '0' (L.to_char y))
    [d_std; d_nl]

let test_oscillation_detected () =
  (* a combinational loop through a transparent latch oscillates *)
  let b = B.create ~name:"osc" ~library:lib in
  let en = B.add_input ~clock:true b "en" in
  let q = B.fresh_net b "q" in
  let nq = B.fresh_net b "nq" in
  ignore (B.add_cell b "inv" "INV_X1" [("A", q); ("ZN", nq)]);
  ignore (B.add_cell b "l" "LATH_X1" [("E", en); ("D", nq); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"en") in
  try
    ignore (Sim.Engine.run_cycle engine []);
    Alcotest.fail "expected Oscillation"
  with Sim.Engine.Oscillation _ -> ()

let test_toggle_counting () =
  let d = ff_chain () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk") in
  List.iter
    (fun v -> ignore (Sim.Engine.run_cycle engine [("a", v)]))
    [L.L1; L.L0; L.L1; L.L0];
  let toggles = Sim.Engine.toggles engine in
  let clk_net = Option.get (Netlist.Design.find_input d "clk") in
  check Alcotest.int "clock toggles twice per cycle" 8 toggles.(clk_net);
  check Alcotest.int "cycles counted" 4 (Sim.Engine.cycles engine)

(* --- Stimulus --- *)

let test_stimulus_deterministic () =
  let s1 = Sim.Stimulus.random ~seed:9 ~cycles:20 ~toggle_probability:0.5 ["a"; "b"] in
  let s2 = Sim.Stimulus.random ~seed:9 ~cycles:20 ~toggle_probability:0.5 ["a"; "b"] in
  check Alcotest.bool "same seed same stream" true (s1 = s2);
  let s3 = Sim.Stimulus.random ~seed:10 ~cycles:20 ~toggle_probability:0.5 ["a"; "b"] in
  check Alcotest.bool "different seed differs" true (s1 <> s3)

let test_stimulus_constant () =
  let s = Sim.Stimulus.constant ~cycles:3 L.L1 ["x"] in
  check Alcotest.int "3 cycles" 3 (List.length s);
  List.iter
    (fun cycle -> check Alcotest.char "held" '1' (L.to_char (List.assoc "x" cycle)))
    s

(* a negative cycle count is refused by name, with or without inputs and
   through the runner; zero cycles is an empty draw *)
let test_stimulus_negative_cycles () =
  let named label f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument msg ->
      check Alcotest.string label "Stimulus.draw: -1 cycles, at least 0" msg
  in
  let draw inputs () =
    Sim.Stimulus.draw ~seeds:[| 1; 2 |] ~cycles:(-1) (Sim.Stimulus.Uniform 0.5)
      inputs
  in
  named "one input" (draw ["a"]);
  named "no inputs" (draw []);
  named "runner" (fun () ->
      Experiments.Runner.run ~cycles:(-1)
        (Option.get (Circuits.Suite.find "s1196")));
  let empty =
    Sim.Stimulus.draw ~seeds:[| 1 |] ~cycles:0 (Sim.Stimulus.Uniform 0.5) ["a"]
  in
  check Alcotest.int "0 cycles" 0 empty.Sim.Stimulus.cycles;
  check Alcotest.int "no words" 0 (Array.length (Sim.Stimulus.words empty))

(* the draw order pinned: each cycle one Logic.to_char per input, cycles
   joined with newlines, MD5 in hex *)
let stream_digest (s : Sim.Stimulus.t) =
  let row cycle =
    String.concat "" (List.map (fun (_, v) -> String.make 1 (L.to_char v)) cycle)
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map row s)))

let test_stimulus_golden () =
  let inputs = List.init 8 (Printf.sprintf "in%d") in
  let digest name expected s =
    check Alcotest.string name expected (stream_digest s)
  in
  digest "random seed 1" "2bb62d9f4c2e8b667603411282ad348d"
    (Sim.Stimulus.random ~seed:1 ~cycles:512 ~toggle_probability:0.25 inputs);
  digest "random seed 63" "1804961be0cd8332f8c06decd4ee304c"
    (Sim.Stimulus.random ~seed:63 ~cycles:512 ~toggle_probability:0.25 inputs);
  digest "bursty" "6fd808cfadb9b2c8ca806fc495f98596"
    (Sim.Stimulus.bursty ~seed:2024 ~cycles:384 ~burst_len:48 ~idle_len:16
       ~toggle_probability:0.35 inputs);
  let profile name =
    0.05 *. float_of_string (String.sub name 2 (String.length name - 2))
  in
  digest "profiled" "697f29bd2c27d07d2b53a894fbb91f9a"
    (Sim.Stimulus.profiled ~seed:2024 ~cycles:384 profile inputs);
  (* the words of 63-lane draws, each as a decimal int, joined by
     commas *)
  let words_digest name expected p =
    check Alcotest.string name expected
      (Digest.to_hex
         (Digest.string
            (String.concat ","
               (Array.to_list
                  (Array.map string_of_int (Sim.Stimulus.words p))))))
  in
  words_digest "63 lanes uniform" "c44f4fd12467061fce0443458e921038"
    (Sim.Stimulus.draw ~seeds:(Array.init 63 (fun l -> 1 + l)) ~cycles:512
       (Sim.Stimulus.Uniform 0.25) inputs);
  words_digest "63 lanes bursty" "53a9a0b995c52ab8acf59edf85def581"
    (Sim.Stimulus.draw ~seeds:(Array.init 63 (fun l -> 2024 + l)) ~cycles:384
       (Sim.Stimulus.Bursty
          { burst_len = 48; idle_len = 16; toggle_probability = 0.35 })
       inputs)

(* a draw fills each input column on first use, alone, with the words
   a draw of every column has there; the counter counts each column's
   words once, and a second read draws nothing *)
let test_stimulus_columns_on_demand () =
  let inputs = List.init 9 (Printf.sprintf "in%d") in
  let seeds = Array.init 63 (fun l -> 1 + l) and cycles = 96 in
  List.iter
    (fun shape ->
      let all = Sim.Stimulus.words (Sim.Stimulus.draw ~seeds ~cycles shape inputs) in
      List.iter
        (fun k ->
          let p = Sim.Stimulus.draw ~seeds ~cycles shape inputs in
          Obs.reset ();
          let col = (Sim.Stimulus.columns p [| k; k |]).(0) in
          check Alcotest.int "one column's words" cycles
            (Obs.counter_of "sim.stimulus.words");
          Array.iteri
            (fun c w ->
              if w <> all.((c * 9) + k) then
                Alcotest.failf "input %d cycle %d: %x alone, %x in the full draw"
                  k c w all.((c * 9) + k))
            col;
          ignore (Sim.Stimulus.columns p [| k; k |]);
          check Alcotest.int "no second fill" cycles
            (Obs.counter_of "sim.stimulus.words"))
        [ 0; 4; 8 ])
    [ Sim.Stimulus.Uniform 0.25;
      Sim.Stimulus.Bursty { burst_len = 10; idle_len = 6; toggle_probability = 0.4 } ];
  Obs.reset ()

(* lane l of a packed draw is the list stream of seeds.(l), for every
   shape, including empty streams and designs without inputs *)
let prop_packed_lanes_match_lists =
  let gen =
    QCheck.(
      quad (int_range 0 40) (int_range 0 10) (int_range 0 2)
        (pair (int_range 1 Sim.Stimulus.max_lanes) (int_range 0 100_000)))
  in
  QCheck.Test.make ~name:"packed draw lanes = list streams" ~count:60 gen
    (fun (cycles, n_inputs, kind, (lanes, base)) ->
      let inputs = List.init n_inputs (Printf.sprintf "i%d") in
      let seeds = Array.init lanes (fun l -> base + (7 * l)) in
      let profile name =
        0.07 *. float_of_int (String.length name + (Hashtbl.hash name mod 9))
      in
      let shape, list_of =
        match kind with
        | 0 ->
          ( Sim.Stimulus.Uniform 0.3,
            fun seed ->
              Sim.Stimulus.random ~seed ~cycles ~toggle_probability:0.3 inputs )
        | 1 ->
          ( Sim.Stimulus.Profiled profile,
            fun seed -> Sim.Stimulus.profiled ~seed ~cycles profile inputs )
        | _ ->
          ( Sim.Stimulus.Bursty
              { burst_len = 5; idle_len = 3; toggle_probability = 0.4 },
            fun seed ->
              Sim.Stimulus.bursty ~seed ~cycles ~burst_len:5 ~idle_len:3
                ~toggle_probability:0.4 inputs )
      in
      let p = Sim.Stimulus.draw ~seeds ~cycles shape inputs in
      Array.iteri
        (fun l seed ->
          let expected = list_of seed in
          if List.length expected <> cycles then
            Alcotest.failf "seed %d: %d cycles, asked for %d" seed
              (List.length expected) cycles;
          if Sim.Stimulus.lane p l <> expected then
            Alcotest.failf "lane %d (seed %d) differs from its list stream" l seed)
        seeds;
      (* bits above the last lane stay clear *)
      let words = Sim.Stimulus.words p in
      Array.iter
        (fun w ->
          if w lsr lanes <> 0 then
            Alcotest.failf "word %x has bits above lane %d" w lanes)
        words;
      (* packing the lanes back gives the draw (an empty stream has no
         cycle to take the port names from) *)
      cycles = 0 || lanes = 0
      ||
      let q = Sim.Stimulus.pack (Array.init lanes (Sim.Stimulus.lane p)) in
      q.Sim.Stimulus.inputs = p.Sim.Stimulus.inputs
      && q.Sim.Stimulus.lanes = lanes && q.Sim.Stimulus.cycles = cycles
      && Sim.Stimulus.words q = words)

(* --- Equivalence --- *)

(* a register of [a], or of [not a]: the two never agree once the first
   captured value is out *)
let dff_of ~invert =
  let b = B.create ~name:(if invert then "dff_not_a" else "dff_a") ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let d =
    if invert then begin
      let na = B.fresh_net b "na" in
      ignore (B.add_cell b "inv" "INV_X1" [("A", a); ("ZN", na)]);
      na
    end
    else a
  in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFF_X1" [("CK", clk); ("D", d); ("Q", q)]);
  B.add_output b "y" q;
  B.freeze b

let verdict_string = function
  | Sim.Equivalence.Equivalent { shift } -> Printf.sprintf "shift %d" shift
  | Sim.Equivalence.Mismatch m ->
    Format.asprintf "%a" Sim.Equivalence.pp_mismatch m

let test_equivalence_shift_detection () =
  let mk k = [("y", if k land 1 = 1 then L.L1 else L.L0)] in
  let ref_stream = List.init 20 mk in
  let dut_stream = mk 1 :: List.init 20 mk in
  (* dut has an extra leading sample: reference matches at shift 1 *)
  (match Sim.Equivalence.compare_streams ~warmup:2 ~max_shift:2
           ref_stream dut_stream with
   | Sim.Equivalence.Equivalent { shift } -> check Alcotest.int "shift" 1 shift
   | Sim.Equivalence.Mismatch _ -> Alcotest.fail "should align at shift 1");
  (* two registers of [a] in a row lag one register of [a] by a cycle *)
  let b = B.create ~name:"dff2_a" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" in
  let q1 = B.fresh_net b "q1" and q2 = B.fresh_net b "q2" in
  ignore (B.add_cell b "r1" "DFF_X1" [("CK", clk); ("D", a); ("Q", q1)]);
  ignore (B.add_cell b "r2" "DFF_X1" [("CK", clk); ("D", q1); ("Q", q2)]);
  B.add_output b "y" q2;
  let reference = dff_of ~invert:false and dut = B.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 40 + l))
      ~cycles:32 (Sim.Stimulus.Uniform 0.5) ["a"]
  in
  check Alcotest.string "check_packed shift" "shift 1"
    (verdict_string
       (Sim.Equivalence.check_packed ~reference ~dut ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus ()));
  check Alcotest.string "check shift" "shift 1"
    (verdict_string
       (Sim.Equivalence.check ~reference ~dut ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:(Sim.Stimulus.lane stimulus 0) ()))

let test_equivalence_mismatch_reported () =
  let a = List.init 10 (fun k -> [("y", if k = 7 then L.L1 else L.L0)]) in
  let b = List.init 10 (fun _ -> [("y", L.L0)]) in
  (match Sim.Equivalence.compare_streams ~warmup:2 ~max_shift:0 a b with
   | Sim.Equivalence.Mismatch m ->
     check Alcotest.int "cycle" 7 m.Sim.Equivalence.cycle;
     check Alcotest.string "port" "y" m.Sim.Equivalence.port
   | Sim.Equivalence.Equivalent _ -> Alcotest.fail "must mismatch");
  (* an unknown output is not a 0: an undriven net against a tie-0 *)
  let design name tie =
    let b = B.create ~name ~library:lib in
    ignore (B.add_input ~clock:true b "clk");
    ignore (B.add_input b "a");
    B.add_output b "y" (if tie then B.const b false else B.fresh_net b "floating");
    B.freeze b
  in
  let reference = design "floating_y" false and dut = design "tied_y" true in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 60 + l))
      ~cycles:16 (Sim.Stimulus.Uniform 0.5) ["a"]
  in
  check Alcotest.string "check_packed X" "cycle 8 port y lane 0: expected x, got 0"
    (verdict_string
       (Sim.Equivalence.check_packed ~reference ~dut ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus ()));
  check Alcotest.string "check X" "cycle 8 port y lane 0: expected x, got 0"
    (verdict_string
       (Sim.Equivalence.check ~reference ~dut ~reference_clocks:clocks
          ~dut_clocks:clocks ~stimulus:(Sim.Stimulus.lane stimulus 0) ()))

(* a shift whose window (cycles past the warmup that both streams
   reach) is empty compares nothing and must not match: a register of
   [a] and one of [not a] are never equivalent, however short the
   stream *)
let test_equivalence_short_streams () =
  let reference = dff_of ~invert:false and dut = dff_of ~invert:true in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let stimulus cycles =
    Sim.Stimulus.random ~seed:3 ~cycles ~toggle_probability:0.5 ["a"]
  in
  let run cycles =
    Sim.Equivalence.check ~reference ~dut ~reference_clocks:clocks
      ~dut_clocks:clocks ~stimulus:(stimulus cycles) ()
  in
  let mismatch_at label cycle = function
    | Sim.Equivalence.Mismatch m ->
      check Alcotest.int label cycle m.Sim.Equivalence.cycle
    | Sim.Equivalence.Equivalent { shift } ->
      Alcotest.failf "%s: Equivalent at shift %d" label shift
  in
  (* the kernel check on 63 lanes, lane 0 the stream above *)
  let run_packed cycles =
    Sim.Equivalence.check_packed ~reference ~dut ~reference_clocks:clocks
      ~dut_clocks:clocks
      ~stimulus:
        (Sim.Stimulus.draw
           ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 3 + l))
           ~cycles (Sim.Stimulus.Uniform 0.5) ["a"])
      ()
  in
  List.iter
    (fun (name, run) ->
      mismatch_at (name ^ " 64 cycles") 8 (run 64);
      (* 11 cycles is the shortest stream with a cycle in every window *)
      ignore (run 11 : Sim.Equivalence.verdict);
      List.iter
        (fun cycles ->
          match run cycles with
          | _ -> Alcotest.failf "%s accepted %d cycles" name cycles
          | exception Invalid_argument _ -> ())
        [8; 9; 10])
    [("check", run); ("check_packed", run_packed)];
  check Alcotest.int "min cycles" 11 (Sim.Equivalence.min_cycles ());
  let outputs d cycles =
    Sim.Engine.run_stream (Sim.Engine.create d ~clocks) (stimulus cycles)
  in
  let compare cycles =
    Sim.Equivalence.compare_streams ~warmup:8 ~max_shift:2
      (outputs reference cycles) (outputs dut cycles)
  in
  (* 9 cycles: only shift 0 has a window (cycle 8), and it differs *)
  mismatch_at "compare 9 cycles" 8 (compare 9);
  (* 8 cycles: no shift has a window *)
  match compare 8 with
  | _ -> Alcotest.fail "compare_streams gave a verdict on 8 cycles"
  | exception Invalid_argument _ -> ()

(* Generated designs of 22 flip-flops, each paired with its 3-phase
   conversion and with a mutant of it: one latch's enable moved between
   p1 and p3, or one output inverted. *)
let packed_case_spec seed =
  { Circuits.Generator.name = Printf.sprintf "pk%d" seed; seed; inputs = 6;
    outputs = 5; layers = [|8; 8; 6|]; fanin = 3; cone_depth = 3;
    self_loop_fraction = 0.25; cross_feedback = 0.25; reuse = 0.25;
    gated_fraction = 0.25; bank_size = 4; po_cones = 3;
    frequency_mhz = 1000.0 }

(* move the enable of one latch clocked straight from p1 or p3 to the
   other port *)
let swap_enable d pick =
  let port_net p = Option.get (Netlist.Design.find_input d p) in
  let candidates =
    List.filter_map
      (fun i ->
        match (Netlist.Design.cell d i).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Latch { enable_pin; _ } ->
          let n = Netlist.Design.pin_net d i enable_pin in
          if n = port_net "p1" then Some (i, "p3")
          else if n = port_net "p3" then Some (i, "p1")
          else None
        | _ -> None)
      (Netlist.Design.insts d)
  in
  let victim, port = List.nth candidates (pick mod List.length candidates) in
  Test_lint.retarget_enable d ~victim:(Netlist.Design.inst_name d victim) ~port

let invert_output d pick =
  let outputs = d.Netlist.Design.primary_outputs in
  let victim = fst (List.nth outputs (pick mod List.length outputs)) in
  let rw = Netlist.Rewrite.start d in
  List.iter (Netlist.Rewrite.copy_inst rw) (Netlist.Design.insts d);
  let b = Netlist.Rewrite.builder rw in
  List.iter
    (fun (port, net) ->
      let net = Netlist.Rewrite.map_net rw net in
      if String.equal port victim then begin
        let inv = B.fresh_net b "inv_out" in
        ignore (B.add_cell b "mut_inv" "INV_X1" [("A", net); ("ZN", inv)]);
        B.add_output b port inv
      end
      else B.add_output b port net)
    outputs;
  B.freeze b

(* The verdict check_packed must give, built from one engine run per
   lane and design: each shift alone on every lane through
   compare_streams (the dut stream starting [shift] cycles later), then
   the lowest shift where every lane matches, else the first (cycle,
   port, lane) of the lowest shift. *)
let per_lane_verdict ~ports ref_streams dut_streams =
  let warmup = 8 and max_shift = 2 in
  let port_index p =
    let rec go k = function
      | [] -> Alcotest.failf "unknown port %s" p
      | q :: rest -> if String.equal p q then k else go (k + 1) rest
    in
    go 0 ports
  in
  let key m =
    (m.Sim.Equivalence.cycle, port_index m.Sim.Equivalence.port,
     m.Sim.Equivalence.lane)
  in
  let at_shift shift =
    let firsts =
      List.filter_map
        (fun l ->
          match
            Sim.Equivalence.compare_streams ~warmup ~max_shift:0
              ref_streams.(l)
              (List.filteri (fun c _ -> c >= shift) dut_streams.(l))
          with
          | Sim.Equivalence.Equivalent _ -> None
          | Sim.Equivalence.Mismatch m ->
            Some { m with Sim.Equivalence.lane = l })
        (List.init (Array.length ref_streams) Fun.id)
    in
    match List.sort (fun a b -> compare (key a) (key b)) firsts with
    | [] -> None
    | m :: _ -> Some m
  in
  let rec go shift first =
    if shift > max_shift then Sim.Equivalence.Mismatch (Option.get first)
    else
      match at_shift shift with
      | None -> Sim.Equivalence.Equivalent { shift }
      | Some m -> go (shift + 1) (if first = None then Some m else first)
  in
  go 0 None

let prop_packed_check_matches_lanes =
  QCheck.Test.make ~name:"packed check = per-lane engine checks" ~count:10
    QCheck.(triple (int_range 0 10_000) (int_range 0 2) (int_range 11 32))
    (fun (seed, kind, cycles) ->
      let d = Circuits.Generator.synthesize (packed_case_spec seed) in
      let converted =
        Phase3.Convert.to_three_phase d (Phase3.Assignment.solve d)
      in
      let dut =
        match kind with
        | 0 -> converted
        | 1 -> swap_enable converted seed
        | _ -> invert_output converted seed
      in
      let reference_clocks = Phase3.Flow.reference_clocks d ~period:1.0 in
      let dut_clocks =
        Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ()
      in
      let rng = Random.State.make [| seed; kind; cycles |] in
      let seeds =
        Array.init Sim.Kernel.max_lanes (fun _ -> Random.State.bits rng)
      in
      let stimulus =
        Sim.Stimulus.draw ~seeds ~cycles (Sim.Stimulus.Uniform 0.35)
          (Sim.Stimulus.inputs_of d)
      in
      let streams design clocks =
        Array.init Sim.Kernel.max_lanes (fun l ->
            Sim.Engine.run_stream (Sim.Engine.create design ~clocks)
              (Sim.Stimulus.lane stimulus l))
      in
      let expected =
        per_lane_verdict
          ~ports:(List.map fst d.Netlist.Design.primary_outputs)
          (streams d reference_clocks) (streams dut dut_clocks)
      in
      let got =
        Sim.Equivalence.check_packed ~reference:d ~dut ~reference_clocks
          ~dut_clocks ~stimulus ()
      in
      if got <> expected then
        Alcotest.failf "seed %d kind %d cycles %d: packed %s, per lane %s"
          seed kind cycles (verdict_string got) (verdict_string expected);
      true)

let suite =
  [ Alcotest.test_case "logic tables" `Quick test_logic_tables;
    Alcotest.test_case "clock events" `Quick test_clock_events;
    Alcotest.test_case "clock levels" `Quick test_clock_levels;
    Alcotest.test_case "ff chain latency" `Quick test_ff_chain_latency;
    Alcotest.test_case "ff simultaneous capture" `Quick test_ff_simultaneous_capture;
    Alcotest.test_case "latch follows and holds" `Quick test_latch_follows_and_holds;
    Alcotest.test_case "icg gates pulses" `Quick test_icg_standard_gates_pulses;
    Alcotest.test_case "icg styles simulate" `Quick test_icg_glitch_free_vs_latchless;
    Alcotest.test_case "oscillation detected" `Quick test_oscillation_detected;
    Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
    Alcotest.test_case "stimulus deterministic" `Quick test_stimulus_deterministic;
    Alcotest.test_case "stimulus constant" `Quick test_stimulus_constant;
    Alcotest.test_case "stimulus golden draws" `Quick test_stimulus_golden;
    Alcotest.test_case "stimulus refuses negative cycles" `Quick
      test_stimulus_negative_cycles;
    QCheck_alcotest.to_alcotest prop_packed_lanes_match_lists;
    Alcotest.test_case "stimulus columns fill on demand" `Quick
      test_stimulus_columns_on_demand;
    Alcotest.test_case "equivalence shift" `Quick test_equivalence_shift_detection;
    Alcotest.test_case "equivalence mismatch" `Quick test_equivalence_mismatch_reported;
    Alcotest.test_case "equivalence refuses empty windows" `Quick
      test_equivalence_short_streams;
    QCheck_alcotest.to_alcotest prop_packed_check_matches_lanes ]

(* --- asynchronous reset cells --- *)

let test_dffr_reset () =
  let b = B.create ~name:"rst" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let rn = B.add_input b "rn" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "r" "DFFR_X1" [("CK", clk); ("D", a); ("Q", q); ("RN", rn)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk") in
  (* load a 1 *)
  ignore (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L1)]);
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L1)]) in
  check Alcotest.char "captured" '1' (L.to_char y);
  (* assert reset: output clears regardless of data *)
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L0)]) in
  check Alcotest.char "cleared" '0' (L.to_char y);
  (* release: next capture takes data again *)
  ignore (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L1)]);
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L1)]) in
  check Alcotest.char "recaptured" '1' (L.to_char y)

let test_lathr_reset () =
  let b = B.create ~name:"rstl" ~library:lib in
  let en = B.add_input ~clock:true b "en" in
  let rn = B.add_input b "rn" in
  let a = B.add_input b "a" in
  let q = B.fresh_net b "q" in
  ignore (B.add_cell b "l" "LATHR_X1" [("E", en); ("D", a); ("Q", q); ("RN", rn)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"en") in
  ignore (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L1)]);
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1); ("rn", L.L0)]) in
  check Alcotest.char "latch cleared by reset" '0' (L.to_char y)

let test_x_init_propagates () =
  let d = ff_chain () in
  let engine =
    Sim.Engine.create ~init:`X d
      ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk")
  in
  (* before any defined input reaches the chain output it reads X *)
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1)]) in
  check Alcotest.char "x initially" 'x' (L.to_char y);
  ignore (Sim.Engine.run_cycle engine [("a", L.L1)]);
  ignore (Sim.Engine.run_cycle engine [("a", L.L1)]);
  let y = List.assoc "y" (Sim.Engine.run_cycle engine [("a", L.L1)]) in
  check Alcotest.char "washes out" '1' (L.to_char y)

let test_unknown_input_rejected () =
  let d = ff_chain () in
  let engine = Sim.Engine.create d ~clocks:(Sim.Clock_spec.single ~period:1.0 ~port:"clk") in
  try
    ignore (Sim.Engine.run_cycle engine [("nonexistent", L.L1)]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let suite =
  suite
  @ [ Alcotest.test_case "dffr async reset" `Quick test_dffr_reset;
      Alcotest.test_case "lathr async reset" `Quick test_lathr_reset;
      Alcotest.test_case "x-init propagation" `Quick test_x_init_propagates;
      Alcotest.test_case "unknown input rejected" `Quick test_unknown_input_rejected ]

let test_three_phase_gap () =
  let spec = Sim.Clock_spec.three_phase ~gap:0.05 ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" () in
  (* each phase opens strictly after the previous closes *)
  let wf p = List.assoc p spec.Sim.Clock_spec.ports in
  check Alcotest.bool "p1 opens after t=0" true ((wf "p1").Sim.Clock_spec.rise_at > 0.0);
  check Alcotest.bool "p2 opens after p1 closes" true
    ((wf "p2").Sim.Clock_spec.rise_at > (wf "p1").Sim.Clock_spec.fall_at);
  check Alcotest.bool "p3 opens after p2 closes" true
    ((wf "p3").Sim.Clock_spec.rise_at > (wf "p2").Sim.Clock_spec.fall_at);
  (* no instant has two phases high *)
  let high t =
    List.filter
      (fun (p, _) -> Sim.Clock_spec.level_at spec p t = Some true)
      spec.Sim.Clock_spec.ports
  in
  List.iter
    (fun t ->
      if List.length (high t) > 1 then
        Alcotest.failf "phases overlap at t=%.3f" t)
    [0.0; 0.1; 0.2; 0.34; 0.36; 0.5; 0.68; 0.71; 0.9; 0.999]

let suite =
  suite @ [ Alcotest.test_case "three-phase gap non-overlap" `Quick test_three_phase_gap ]
