(* Cross-checks of the bit-parallel Sim.Kernel against the scalar
   Sim.Engine oracle: lane 0 of the kernel must be bit-identical to the
   engine — same primary-output trace AND same per-net toggle counts —
   on random generated netlists and on the benchmark suite under all
   three design styles. *)

let check = Alcotest.check

let lib = Cell_lib.Default_library.library ()

module B = Netlist.Builder

let logic_to_string vs =
  String.concat ""
    (List.map (fun (p, v) -> Printf.sprintf "%s=%c " p (Sim.Logic.to_char v)) vs)

(* run both simulators cycle-for-cycle on the same stimulus; compare
   outputs each cycle (on lane 0 and on a few probe lanes up to the top
   bit of the word) and the full toggle arrays at the end *)
let cross_check ?(label = "") d ~clocks stim =
  let engine = Sim.Engine.create d ~clocks in
  let kernel = Sim.Kernel.create d ~clocks in
  let lanes = Sim.Kernel.max_lanes in
  List.iteri
    (fun c inputs ->
      let eng_out = Sim.Engine.run_cycle engine inputs in
      Sim.Kernel.run_cycle_broadcast kernel inputs;
      let ker_out = Sim.Kernel.output_sample kernel ~lane:0 in
      if eng_out <> ker_out then
        Alcotest.failf "%s cycle %d outputs differ:\n engine %s\n kernel %s"
          label c (logic_to_string eng_out) (logic_to_string ker_out);
      List.iter
        (fun lane ->
          if Sim.Kernel.output_sample kernel ~lane <> eng_out then
            Alcotest.failf "%s cycle %d lane %d diverges from lane 0" label c
              lane)
        [1; 31; 62])
    stim;
  let et = Sim.Engine.toggles engine in
  let kt0 = Sim.Kernel.toggles_lane0 kernel in
  let kt = Sim.Kernel.toggles kernel in
  Array.iteri
    (fun n e ->
      if e <> kt0.(n) then
        Alcotest.failf "%s net %s: engine %d toggles, kernel lane0 %d" label
          (Netlist.Design.net_name d n) e kt0.(n);
      (* broadcast stimulus: every lane repeats lane 0 *)
      if kt.(n) <> lanes * kt0.(n) then
        Alcotest.failf "%s net %s: %d lanes x %d toggles <> total %d" label
          (Netlist.Design.net_name d n) lanes kt0.(n) kt.(n))
    et

let gen_spec seed =
  { Circuits.Generator.name = "xck"; seed; inputs = 5; outputs = 4;
    layers = [|5; 5|]; fanin = 3; cone_depth = 3; self_loop_fraction = 0.2;
    cross_feedback = 0.2; reuse = 0.2; gated_fraction = 0.3; bank_size = 3;
    po_cones = 3; frequency_mhz = 1000.0 }

let prop_kernel_matches_engine =
  QCheck.Test.make ~name:"kernel lane 0 matches engine on random netlists"
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      let stim =
        Sim.Stimulus.random ~seed:(seed + 1) ~cycles:24 ~toggle_probability:0.5
          (Sim.Stimulus.inputs_of d)
      in
      cross_check d ~clocks stim;
      true)

(* fusion and activity gating are pure optimisations: switching either
   off must not change a single output or toggle count on any lane *)
let prop_fusion_gating_equivalence =
  QCheck.Test.make ~name:"fusion/gating on-off equivalence" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      let stim =
        Sim.Stimulus.random ~seed:(seed + 2) ~cycles:20 ~toggle_probability:0.4
          (Sim.Stimulus.inputs_of d)
      in
      let reference = Sim.Kernel.create d ~clocks in
      let variants =
        [ ("fuse-off", Sim.Kernel.create ~fuse:false d ~clocks);
          ("gating-off", Sim.Kernel.create ~gating:false d ~clocks);
          ("both-off", Sim.Kernel.create ~fuse:false ~gating:false d ~clocks) ]
      in
      List.iteri
        (fun c inputs ->
          Sim.Kernel.run_cycle_broadcast reference inputs;
          let expected = Sim.Kernel.output_sample reference ~lane:0 in
          List.iter
            (fun (label, k) ->
              Sim.Kernel.run_cycle_broadcast k inputs;
              if Sim.Kernel.output_sample k ~lane:0 <> expected then
                Alcotest.failf "%s cycle %d outputs diverge" label c)
            variants)
        stim;
      List.iter
        (fun (label, k) ->
          if Sim.Kernel.toggles k <> Sim.Kernel.toggles reference
             || Sim.Kernel.toggles_lane0 k
                <> Sim.Kernel.toggles_lane0 reference then
            Alcotest.failf "%s toggle counts diverge" label)
        variants;
      let off_stats = Sim.Kernel.stats (List.assoc "fuse-off" variants) in
      if off_stats.Sim.Kernel.fused_ops <> 0 then
        Alcotest.failf "fuse-off kernel reports %d fused ops"
          off_stats.Sim.Kernel.fused_ops;
      true)

(* different stimulus on every lane: each lane reproduces its dedicated
   scalar run, lane 0's toggles match that run's, and the kernel's
   toggle totals are exactly the sum of the per-lane engine counts
   (catches lane-mask errors in the popcount accounting) *)
let test_heterogeneous_lanes () =
  let d = Circuits.Generator.synthesize (gen_spec 9) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let streams =
    Array.init Sim.Kernel.max_lanes (fun l ->
        Sim.Stimulus.random ~seed:(300 + l) ~cycles:12 ~toggle_probability:0.4
          (Sim.Stimulus.inputs_of d))
  in
  let kernel = Sim.Kernel.create d ~clocks in
  Sim.Kernel.run_streams kernel streams;
  let n_nets = Netlist.Design.num_nets d in
  let summed = Array.make n_nets 0 in
  Array.iteri
    (fun l stream ->
      let engine = Sim.Engine.create d ~clocks in
      let expected = List.rev (Sim.Engine.run_stream engine stream) in
      let final = match expected with o :: _ -> o | [] -> [] in
      check Alcotest.bool (Printf.sprintf "lane %d final outputs" l) true
        (final = Sim.Kernel.output_sample kernel ~lane:l);
      let et = Sim.Engine.toggles engine in
      Array.iteri (fun n c -> summed.(n) <- summed.(n) + c) et;
      if l = 0 then
        Array.iteri
          (fun n c ->
            if c <> (Sim.Kernel.toggles_lane0 kernel).(n) then
              Alcotest.failf "net %s lane-0 toggles: engine %d, kernel %d"
                (Netlist.Design.net_name d n) c
                (Sim.Kernel.toggles_lane0 kernel).(n))
          et)
    streams;
  let kt = Sim.Kernel.toggles kernel in
  Array.iteri
    (fun n total ->
      if total <> kt.(n) then
        Alcotest.failf "net %s: per-lane engine toggles sum %d, kernel %d"
          (Netlist.Design.net_name d n) total kt.(n))
    summed

(* the packed path against the oracle: a draw's 63 lanes through one
   kernel give, per net, the sum of the 63 engine toggle counts of the
   lanes' list streams; lane 0 alone gives the engine's count, and every
   lane ends on the engine's outputs.  A second kernel samples the
   outputs with run_sampled: it counts what run counts, and each lane's
   samples are that lane's engine output stream, cycle by cycle *)
let prop_packed_run_matches_engine =
  QCheck.Test.make ~name:"packed run = per-lane engine runs" ~count:8
    QCheck.(pair (int_range 0 1000) (int_range 0 16))
    (fun (seed, cycles) ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
      let seeds = Array.init Sim.Kernel.max_lanes (fun l -> (100 * seed) + l) in
      let stimulus =
        Sim.Stimulus.draw ~seeds ~cycles (Sim.Stimulus.Uniform 0.4)
          (Sim.Stimulus.inputs_of d)
      in
      let kernel = Sim.Kernel.create d ~clocks in
      Sim.Kernel.run kernel stimulus;
      let sampler = Sim.Kernel.create d ~clocks in
      let outs = Array.of_list d.Netlist.Design.primary_outputs in
      let sv, sx = Sim.Kernel.run_sampled sampler stimulus (Array.map snd outs) in
      if Sim.Kernel.toggles sampler <> Sim.Kernel.toggles kernel
         || Sim.Kernel.stats sampler <> Sim.Kernel.stats kernel then
        Alcotest.failf "seed %d: run_sampled counts differ from run" seed;
      let m = Array.length outs in
      let summed = Array.make (Netlist.Design.num_nets d) 0 in
      Array.iteri
        (fun l _ ->
          let engine = Sim.Engine.create d ~clocks in
          let stream = Sim.Engine.run_stream engine (Sim.Stimulus.lane stimulus l) in
          List.iteri
            (fun c sample ->
              List.iteri
                (fun j (port, value) ->
                  let bit w = (w lsr l) land 1 = 1 in
                  let sampled =
                    if bit sx.((c * m) + j) then Sim.Logic.LX
                    else Sim.Logic.of_bool (bit sv.((c * m) + j))
                  in
                  if sampled <> value then
                    Alcotest.failf "seed %d lane %d cycle %d port %s: sampled %c, engine %c"
                      seed l c port (Sim.Logic.to_char sampled)
                      (Sim.Logic.to_char value))
                sample)
            stream;
          let outputs =
            List.map
              (fun (port, net) -> (port, Sim.Engine.net_value engine net))
              d.Netlist.Design.primary_outputs
          in
          if Sim.Kernel.output_sample kernel ~lane:l <> outputs then
            Alcotest.failf "seed %d lane %d: final outputs differ" seed l;
          let et = Sim.Engine.toggles engine in
          Array.iteri (fun n c -> summed.(n) <- summed.(n) + c) et;
          if l = 0 && et <> Sim.Kernel.toggles_lane0 kernel then
            Alcotest.failf "seed %d: lane-0 toggles differ from the engine's"
              seed)
        seeds;
      Array.iteri
        (fun n total ->
          if total <> (Sim.Kernel.toggles kernel).(n) then
            Alcotest.failf "seed %d net %s: engine lanes sum %d, kernel %d" seed
              (Netlist.Design.net_name d n) total (Sim.Kernel.toggles kernel).(n))
        summed;
      Sim.Kernel.cycles kernel = cycles)

(* run_streams packs its lists and runs the same loop *)
let test_run_streams_adapter () =
  let d = Circuits.Generator.synthesize (gen_spec 17) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 500 + l))
      ~cycles:16
      (Sim.Stimulus.Bursty
         { burst_len = 4; idle_len = 2; toggle_probability = 0.5 })
      (Sim.Stimulus.inputs_of d)
  in
  let packed = Sim.Kernel.create d ~clocks in
  Sim.Kernel.run packed stimulus;
  let lists = Sim.Kernel.create d ~clocks in
  Sim.Kernel.run_streams lists
    (Array.init Sim.Kernel.max_lanes (Sim.Stimulus.lane stimulus));
  check Alcotest.(array int) "toggles" (Sim.Kernel.toggles packed)
    (Sim.Kernel.toggles lists);
  check Alcotest.(array int) "lane-0 toggles" (Sim.Kernel.toggles_lane0 packed)
    (Sim.Kernel.toggles_lane0 lists);
  check Alcotest.bool "stats" true
    (Sim.Kernel.stats packed = Sim.Kernel.stats lists);
  check Alcotest.int "cycles" (Sim.Kernel.cycles packed) (Sim.Kernel.cycles lists)

(* list streams the packed form cannot carry are refused, not guessed *)
let test_run_streams_refusals () =
  let d = Circuits.Generator.synthesize (gen_spec 3) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let base =
    Array.init Sim.Kernel.max_lanes (fun l ->
        Sim.Stimulus.random ~seed:(40 + l) ~cycles:6 ~toggle_probability:0.5
          (Sim.Stimulus.inputs_of d))
  in
  let edit lane f = Array.mapi (fun l s -> if l = lane then f s else s) base in
  let on_cycle c f = List.mapi (fun i cycle -> if i = c then f cycle else cycle) in
  let refused label streams =
    match Sim.Kernel.run_streams (Sim.Kernel.create d ~clocks) streams with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  refused "unknown input"
    (Array.map
       (List.map (fun cycle -> ("no_such_port", Sim.Logic.L0) :: cycle))
       base);
  refused "lanes of different lengths" (edit 5 List.tl);
  refused "ports in another order" (edit 3 (on_cycle 2 List.rev));
  refused "X value"
    (edit 7 (on_cycle 1 (List.map (fun (port, _) -> (port, Sim.Logic.LX)))));
  refused "62 lanes" (Array.sub base 0 (Sim.Kernel.max_lanes - 1));
  (* the unedited streams run *)
  Sim.Kernel.run_streams (Sim.Kernel.create d ~clocks) base

(* the full quick suite, each design style with its own clocking *)
let test_suite_variants () =
  List.iter
    (fun (bench : Circuits.Suite.benchmark) ->
      let period = bench.Circuits.Suite.period_ns in
      let original = bench.Circuits.Suite.build () in
      let ff_clocks = Phase3.Flow.reference_clocks original ~period in
      let ms = Phase3.Master_slave.convert original in
      let config =
        { (Phase3.Flow.default_config ~period) with
          Phase3.Flow.verify_equivalence = false;
          activity_cycles = 32;
          (* plasma carries known SMO setup violations at its published
             period; this test exercises simulation, not sign-off *)
          lint = false }
      in
      let flow = Phase3.Flow.run ~config original in
      let threep_clocks = Phase3.Flow.clocks_of config in
      List.iter
        (fun (style, d, clocks) ->
          let stim =
            Sim.Stimulus.random ~seed:11 ~cycles:48 ~toggle_probability:0.35
              (Sim.Stimulus.inputs_of d)
          in
          let label =
            Printf.sprintf "%s/%s" bench.Circuits.Suite.bench_name style
          in
          cross_check ~label d ~clocks stim)
        [ ("ff", original, ff_clocks);
          ("ms", ms, ff_clocks);
          ("3p", flow.Phase3.Flow.final, threep_clocks) ])
    (Circuits.Suite.quick ())

let test_oscillation_budget () =
  (* a combinational loop through a transparent latch oscillates *)
  let b = B.create ~name:"osc" ~library:lib in
  let en = B.add_input ~clock:true b "en" in
  let q = B.fresh_net b "q" in
  let nq = B.fresh_net b "nq" in
  ignore (B.add_cell b "inv" "INV_X1" [("A", q); ("ZN", nq)]);
  ignore (B.add_cell b "l" "LATH_X1" [("E", en); ("D", nq); ("Q", q)]);
  B.add_output b "y" q;
  let d = B.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"en" in
  let kernel = Sim.Kernel.create d ~clocks in
  try
    Sim.Kernel.run_cycle_broadcast kernel [];
    Alcotest.fail "expected Kernel.Oscillation"
  with Sim.Kernel.Oscillation _ -> ()

let test_popcount () =
  check Alcotest.int "zero" 0 (Sim.Kernel.popcount 0);
  check Alcotest.int "one" 1 (Sim.Kernel.popcount 1);
  check Alcotest.int "max_int" 62 (Sim.Kernel.popcount max_int);
  check Alcotest.int "min_int" 1 (Sim.Kernel.popcount min_int);
  (* OCaml ints are 63-bit: -1 is 63 ones, the full-width lane mask *)
  check Alcotest.int "all ones" 63 (Sim.Kernel.popcount (-1))

(* One wide first wave with shared fanout: heavy net reuse plus
   feedback gives a level whose units share readers, so the wake order
   into later buckets decides glitch toggle counts. *)
let test_wide_wave_shared_fanout () =
  let spec =
    { Circuits.Generator.name = "xchunk"; seed = 41; inputs = 8; outputs = 6;
      layers = [|48|]; fanin = 5; cone_depth = 3; self_loop_fraction = 0.5;
      cross_feedback = 0.5; reuse = 0.7; gated_fraction = 0.3; bank_size = 4;
      po_cones = 6; frequency_mhz = 1000.0 }
  in
  let d = Circuits.Generator.synthesize spec in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  cross_check ~label:"xchunk" d ~clocks
    (Sim.Stimulus.random ~seed:42 ~cycles:20 ~toggle_probability:0.5
       (Sim.Stimulus.inputs_of d))

let suite =
  [ QCheck_alcotest.to_alcotest prop_kernel_matches_engine;
    QCheck_alcotest.to_alcotest prop_fusion_gating_equivalence;
    Alcotest.test_case "heterogeneous lanes" `Quick test_heterogeneous_lanes;
    QCheck_alcotest.to_alcotest prop_packed_run_matches_engine;
    Alcotest.test_case "run_streams adapter = packed run" `Quick
      test_run_streams_adapter;
    Alcotest.test_case "run_streams refusals" `Quick test_run_streams_refusals;
    Alcotest.test_case "suite variants lane-0 identity" `Slow test_suite_variants;
    Alcotest.test_case "wide wave shared fanout vs engine" `Quick
      test_wide_wave_shared_fanout;
    Alcotest.test_case "oscillation budget" `Quick test_oscillation_budget;
    Alcotest.test_case "popcount" `Quick test_popcount ]
