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

(* the nets an exactness check samples every cycle: the primary outputs
   and every register output *)
let observed d =
  let regs =
    List.filter_map
      (fun i ->
        if Cell_lib.Cell.is_sequential (Netlist.Design.cell d i) then
          Netlist.Design.pin_net_opt d i "Q"
        else None)
      (Netlist.Design.insts d)
  in
  Array.of_list (List.map snd d.Netlist.Design.primary_outputs @ regs)

let count_icgs d style =
  List.length
    (List.filter
       (fun i ->
         match (Netlist.Design.cell d i).Cell_lib.Cell.kind with
         | Cell_lib.Cell.Clock_gate { style = s; _ } -> s = style
         | _ -> false)
       (Netlist.Design.insts d))

(* nets the kernel's fusion hides inside a unit: a combinational output
   off the clock network whose one reader is combinational and off it
   too *)
let fused_internal d =
  let clock = (Netlist.Clocking.network d).Netlist.Clocking.insts in
  let comb i =
    (not (Array.mem i clock))
    && (Netlist.Design.cell d i).Cell_lib.Cell.kind = Cell_lib.Cell.Combinational
  in
  List.filter
    (fun n ->
      match d.Netlist.Design.net_driver.(n), d.Netlist.Design.net_sinks.(n) with
      | Netlist.Design.Driven_by (i, _), [ (j, _) ] -> j <> i && comb i && comb j
      | _ -> false)
    (List.init (Netlist.Design.num_nets d) Fun.id)

(* the nets driven by instances of a kind *)
let outputs_of_kind d is_kind =
  List.concat_map
    (fun i ->
      if is_kind (Netlist.Design.cell d i).Cell_lib.Cell.kind then
        Netlist.Design.output_nets d i
      else [])
    (Netlist.Design.insts d)

(* the kinds of net an observed subset holds one of: fused-internal
   nets, latch Qs, ICG GCKs and outputs *)
let net_kinds d =
  [ fused_internal d;
    outputs_of_kind d (function Cell_lib.Cell.Latch _ -> true | _ -> false);
    outputs_of_kind d (function Cell_lib.Cell.Clock_gate _ -> true | _ -> false);
    List.map snd d.Netlist.Design.primary_outputs ]

(* a random subset of [d]'s nets holding a net of each kind the design
   has *)
let observe_subset rng d =
  let pick = function
    | [] -> []
    | l -> [ List.nth l (Random.State.int rng (List.length l)) ]
  in
  let some =
    List.filter
      (fun _ -> Random.State.int rng 8 = 0)
      (List.init (Netlist.Design.num_nets d) Fun.id)
  in
  Array.of_list
    (List.sort_uniq compare (List.concat_map pick (net_kinds d) @ some))

(* fusion, activity gating and the wake rules (on with gating) are pure
   optimisations: switching either off must not change a sampled value
   or a toggle count on any lane.  Nor does a cone: a kernel that
   observes a random subset of nets, with fusion and gating on or off,
   samples and counts on those nets what the whole-design kernel does.
   Gating also switches the event plans, so this holds every plan to
   the reference path.  Each seed checks a flip-flop design with
   standard ICGs, its master-slave and 3-phase conversions and the
   flow's clock-gated result, which adds M1 and M2 ICGs (both on 999
   of the 1001 seeds the property draws from), on 63 lanes of one
   draw *)
let prop_fusion_gating_equivalence =
  QCheck.Test.make ~name:"fusion/gating on-off equivalence" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let d = Circuits.Generator.synthesize (gen_spec seed) in
      let config =
        { (Phase3.Flow.default_config ~period:1.0) with
          Phase3.Flow.verify_equivalence = false;
          activity_cycles = 64;
          lint = false }
      in
      let flow = Phase3.Flow.run ~config d in
      let three_phase = Phase3.Flow.clocks_of config in
      let ff_clocks = Phase3.Flow.reference_clocks d ~period:1.0 in
      let designs =
        [ ("ff", d, ff_clocks);
          ("ms", Phase3.Master_slave.convert d, ff_clocks);
          ("3p", flow.Phase3.Flow.converted, three_phase);
          ("gated", flow.Phase3.Flow.final, three_phase) ]
      in

      List.iter
        (fun (style, d, clocks) ->
          let stimulus =
            Sim.Stimulus.draw
              ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> (1000 * seed) + l))
              ~cycles:20 (Sim.Stimulus.Uniform 0.4) (Sim.Stimulus.inputs_of d)
          in
          let nets = observed d in
          let run k =
            let planes = Sim.Kernel.run_sampled k stimulus nets in
            (planes, Sim.Kernel.toggles k, Sim.Kernel.toggles_lane0 k)
          in
          let expected = run (Sim.Kernel.create d ~clocks) in
          let variants =
            [ ("fuse-off", Sim.Kernel.create ~fuse:false d ~clocks);
              ("gating-off", Sim.Kernel.create ~gating:false d ~clocks);
              ("both-off", Sim.Kernel.create ~fuse:false ~gating:false d ~clocks) ]
          in
          List.iter
            (fun (label, k) ->
              if run k <> expected then
                Alcotest.failf "seed %d %s/%s: samples or toggles diverge" seed
                  style label)
            variants;
          let off_stats = Sim.Kernel.stats (List.assoc "fuse-off" variants) in
          if off_stats.Sim.Kernel.fused_ops <> 0 then
            Alcotest.failf "fuse-off kernel reports %d fused ops"
              off_stats.Sim.Kernel.fused_ops;
          if style = "gated" && List.mem [] (net_kinds d) then
            Alcotest.failf "seed %d: the gated design lacks a net kind" seed;
          let rng = Random.State.make [| seed; String.length style |] in
          let subset = observe_subset rng d in
          let on_subset k =
            let planes = Sim.Kernel.run_sampled k stimulus subset in
            let at a = Array.map (fun n -> a.(n)) subset in
            (planes, at (Sim.Kernel.toggles k), at (Sim.Kernel.toggles_lane0 k))
          in
          let whole = on_subset (Sim.Kernel.create d ~clocks) in
          List.iter
            (fun (label, fuse, gating) ->
              let k = Sim.Kernel.create ~fuse ~gating ~observe:subset d ~clocks in
              if on_subset k <> whole then
                Alcotest.failf "seed %d %s/observe-%s: samples or toggles diverge"
                  seed style label)
            [ ("on", true, true); ("fuse-off", false, true);
              ("gating-off", true, false) ])
        designs;
      true)

(* a kernel samples only nets of its cone: a net outside the fan-in of
   the observed nets is refused, not read stale *)
let test_observe_refuses_outside () =
  let b = B.create ~name:"two" ~library:lib in
  let clk = B.add_input ~clock:true b "clk" in
  let a = B.add_input b "a" and c = B.add_input b "c" in
  let qa = B.fresh_net b "qa" and qc = B.fresh_net b "qc" in
  ignore (B.add_cell b "ra" "DFF_X1" [("CK", clk); ("D", a); ("Q", qa)]);
  ignore (B.add_cell b "rc" "DFF_X1" [("CK", clk); ("D", c); ("Q", qc)]);
  B.add_output b "ya" qa;
  B.add_output b "yc" qc;
  let d = B.freeze b in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 80 + l))
      ~cycles:4 (Sim.Stimulus.Uniform 0.5) (Sim.Stimulus.inputs_of d)
  in
  let k = Sim.Kernel.create ~observe:[| qa |] d ~clocks in
  (match Sim.Kernel.run_sampled k stimulus [| qa; qc |] with
   | _ -> Alcotest.fail "sampled a net outside the cone"
   | exception Invalid_argument _ -> ());
  (* the cone itself samples *)
  ignore (Sim.Kernel.run_sampled k stimulus [| qa; a; clk |])

(* [copy_into b ~prefix ~clocks d] adds [d]'s instances to [b] under
   [prefix], its clock ports wired to the nets [clocks] names and its
   other ports prefixed; returns the net map *)
let copy_into b ~prefix ~clocks d =
  let map = Array.make (Netlist.Design.num_nets d) (-1) in
  List.iter
    (fun (port, n) ->
      map.(n) <-
        (match List.assoc_opt port clocks with
         | Some shared -> shared
         | None -> B.add_input b (prefix ^ port)))
    d.Netlist.Design.primary_inputs;
  Array.iteri
    (fun n drv ->
      if map.(n) < 0 then
        map.(n) <-
          (match drv with
           | Netlist.Design.Driven_const v -> B.const b v
           | _ -> B.fresh_net b (prefix ^ Netlist.Design.net_name d n)))
    d.Netlist.Design.net_driver;
  List.iter
    (fun i ->
      ignore
        (B.add_instance b
           (prefix ^ Netlist.Design.inst_name d i)
           (Netlist.Design.cell d i)
           (Array.to_list
              (Array.map (fun (pin, n) -> (pin, map.(n)))
                 d.Netlist.Design.inst_conns.(i)))))
    (Netlist.Design.insts d);
  List.iter
    (fun (port, n) -> B.add_output b (prefix ^ port) map.(n))
    d.Netlist.Design.primary_outputs;
  map

(* a cone does the work of the cone alone: two clock-gated 3-phase
   designs share their clock ports in one netlist, and a kernel
   observing every net of the first half samples, counts toggles and
   counts evaluations, skipped waves and skipped register cones
   exactly as the whole-design kernel of the first half built alone,
   while no net of the second half toggles *)
let test_observe_one_half () =
  let config =
    { (Phase3.Flow.default_config ~period:1.0) with
      Phase3.Flow.verify_equivalence = false;
      activity_cycles = 64;
      lint = false }
  in
  let final seed =
    (Phase3.Flow.run ~config (Circuits.Generator.synthesize (gen_spec seed)))
      .Phase3.Flow.final
  in
  let first = final 21 and second = final 22 in
  let build halves =
    let b = B.create ~name:"halves" ~library:lib in
    let clocks =
      List.map (fun p -> (p, B.add_input ~clock:true b p)) [ "p1"; "p2"; "p3" ]
    in
    let maps =
      List.map (fun (prefix, d) -> copy_into b ~prefix ~clocks d) halves
    in
    (B.freeze b, List.hd maps)
  in
  let alone, map_alone = build [ ("a_", first) ] in
  let both, map = build [ ("a_", first); ("b_", second) ] in
  let clocks = Phase3.Flow.clocks_of config in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 900 + l))
      ~cycles:24 (Sim.Stimulus.Uniform 0.4) (Sim.Stimulus.inputs_of alone)
  in
  let n_alone = Netlist.Design.num_nets alone in
  let nets = Array.init n_alone Fun.id in
  (* the first half keeps its net numbers in [both] *)
  check Alcotest.(array int) "first half's nets" map_alone map;
  let ka = Sim.Kernel.create alone ~clocks in
  let kb = Sim.Kernel.create ~observe:nets both ~clocks in
  let sa = Sim.Kernel.run_sampled ka stimulus nets in
  let sb = Sim.Kernel.run_sampled kb stimulus nets in
  check Alcotest.bool "samples" true (sa = sb);
  let ta = Sim.Kernel.toggles ka and tb = Sim.Kernel.toggles kb in
  check Alcotest.(array int) "toggles of the first half" ta
    (Array.sub tb 0 n_alone);
  check Alcotest.(array int) "lane-0 toggles of the first half"
    (Sim.Kernel.toggles_lane0 ka)
    (Array.sub (Sim.Kernel.toggles_lane0 kb) 0 n_alone);
  Array.iteri
    (fun n c ->
      if n >= n_alone && c <> 0 then
        Alcotest.failf "net %s of the second half toggled %d times"
          (Netlist.Design.net_name both n) c)
    tb;
  let a = Sim.Kernel.stats ka and b = Sim.Kernel.stats kb in
  check Alcotest.int "evals" a.Sim.Kernel.stat_evals b.Sim.Kernel.stat_evals;
  check Alcotest.int "waves skipped" a.Sim.Kernel.stat_waves_skipped
    b.Sim.Kernel.stat_waves_skipped;
  check Alcotest.int "cones skipped" a.Sim.Kernel.stat_cones_skipped
    b.Sim.Kernel.stat_cones_skipped

(* Inputs commit after the period's first rising edge of any clock
   port, in the cone or not.  A kernel observing one output, whose cone
   may not read [p1] (the cones of converted mulpipe's outputs read
   [p2] and [p3] only), samples that output and counts every net it
   updates as the whole-design kernel does *)
let test_observe_one_output () =
  let config period =
    { (Phase3.Flow.default_config ~period) with
      Phase3.Flow.verify_equivalence = false;
      activity_cycles = 64;
      lint = false }
  in
  let converted period d = (Phase3.Flow.run ~config:(config period) d).Phase3.Flow.final in
  let mulpipe =
    let ic = open_in "../examples/rtl/mulpipe.sv" in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Elab.Elaborate.read ~file:"mulpipe.sv" ~library:lib src
  in
  List.iter
    (fun (label, d, period) ->
      let clocks = Phase3.Flow.clocks_of (config period) in
      let stimulus =
        Sim.Stimulus.draw
          ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 300 + l))
          ~cycles:16 (Sim.Stimulus.Uniform 0.4) (Sim.Stimulus.inputs_of d)
      in
      let outs = Array.of_list (List.map snd d.Netlist.Design.primary_outputs) in
      let whole = Sim.Kernel.create d ~clocks in
      let sv, sx = Sim.Kernel.run_sampled whole stimulus outs in
      let m = Array.length outs in
      Array.iteri
        (fun j n ->
          let k = Sim.Kernel.create ~observe:[| n |] d ~clocks in
          let ov, ox = Sim.Kernel.run_sampled k stimulus [| n |] in
          Array.iteri
            (fun c v ->
              if v <> sv.((c * m) + j) || ox.(c) <> sx.((c * m) + j) then
                Alcotest.failf "%s output %s cycle %d: cone and whole differ"
                  label (Netlist.Design.net_name d n) c)
            ov;
          Array.iteri
            (fun net t ->
              if t <> 0 && t <> (Sim.Kernel.toggles whole).(net) then
                Alcotest.failf "%s output %s: net %s toggles %d in the cone, %d whole"
                  label (Netlist.Design.net_name d n) (Netlist.Design.net_name d net)
                  t (Sim.Kernel.toggles whole).(net))
            (Sim.Kernel.toggles k))
        outs)
    [ ("mulpipe", converted 2.0 mulpipe, 2.0);
      ("gen-1", converted 1.0 (Circuits.Generator.synthesize (gen_spec 1)), 1.0) ]

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

(* --- The wake rules, one hand-built design per exactness argument.

   Each design runs 63 lanes of one draw.  Every lane's outputs and
   register outputs, after every cycle, are its own engine run's; with
   that lane's stream on every lane, a kernel counts the engine's
   toggles; and the 63-lane run counts the same toggles on every lane
   as with every wake ([~gating:false]).  Lanes share one worklist, so
   on a design whose glitches depend on the order of register
   evaluations a lane's toggle count can depend on what the other lanes
   wake: only a run with every lane alike is held to the engine's
   count. *)

let three_phase_clocks =
  Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" ()

let single_clock = Sim.Clock_spec.single ~period:1.0 ~port:"clk"

let against_engine label ~clocks build =
  let b = B.create ~name:label ~library:lib in
  build b;
  let d = B.freeze b in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 700 + l))
      ~cycles:24 (Sim.Stimulus.Uniform 0.5) (Sim.Stimulus.inputs_of d)
  in
  let nets = observed d in
  let run k =
    (Sim.Kernel.run_sampled k stimulus nets, Sim.Kernel.toggles k,
     Sim.Kernel.toggles_lane0 k)
  in
  let ((sv, sx), _, _) as ruled = run (Sim.Kernel.create d ~clocks) in
  if run (Sim.Kernel.create ~gating:false d ~clocks) <> ruled then
    Alcotest.failf "%s: the wake rules change samples or toggles" label;
  let m = Array.length nets in
  for l = 0 to Sim.Kernel.max_lanes - 1 do
    let engine = Sim.Engine.create d ~clocks in
    let alone = Sim.Kernel.create d ~clocks in
    List.iteri
      (fun c inputs ->
        ignore (Sim.Engine.run_cycle engine inputs);
        Sim.Kernel.run_cycle_broadcast alone inputs;
        Array.iteri
          (fun j n ->
            let bit w = (w lsr l) land 1 = 1 in
            let sampled =
              if bit sx.((c * m) + j) then Sim.Logic.LX
              else Sim.Logic.of_bool (bit sv.((c * m) + j))
            in
            if sampled <> Sim.Engine.net_value engine n then
              Alcotest.failf "%s lane %d cycle %d net %s: kernel %c, engine %c"
                label l c (Netlist.Design.net_name d n)
                (Sim.Logic.to_char sampled)
                (Sim.Logic.to_char (Sim.Engine.net_value engine n)))
          nets)
      (Sim.Stimulus.lane stimulus l);
    if Sim.Kernel.toggles_lane0 alone <> Sim.Engine.toggles engine then
      Alcotest.failf "%s lane %d: toggles differ from the engine's" label l
  done

let phase_ports b =
  (B.add_input ~clock:true b "p1", B.add_input ~clock:true b "p2",
   B.add_input ~clock:true b "p3")

let cell b name kind pins = ignore (B.add_cell b name kind pins)

(* inputs change while p1 is open: a's edge races through two p1
   latches and the logic between them in one settle, and latches on p2
   (active low too) and p3 see their D move while closed *)
let test_race_through () =
  against_engine "race" ~clocks:three_phase_clocks (fun b ->
      let p1, p2, p3 = phase_ports b in
      let a = B.add_input b "a" and c = B.add_input b "c" in
      let q1 = B.fresh_net b "q1" and n = B.fresh_net b "n" in
      let q2 = B.fresh_net b "q2" and q3 = B.fresh_net b "q3" in
      let q4 = B.fresh_net b "q4" in
      cell b "l1" "LATH_X1" [("E", p1); ("D", a); ("Q", q1)];
      cell b "x" "XOR2_X1" [("A1", q1); ("A2", c); ("Z", n)];
      cell b "l2" "LATH_X1" [("E", p1); ("D", n); ("Q", q2)];
      cell b "l3" "LATL_X1" [("E", p2); ("D", q2); ("Q", q3)];
      cell b "l4" "LATH_X1" [("E", p3); ("D", n); ("Q", q4)];
      B.add_output b "y2" q2;
      B.add_output b "y3" q3;
      B.add_output b "y4" q4)

(* a reset latch keeps every wake: RN and D move in the same settle *)
let test_latch_reset_and_data () =
  against_engine "latch-reset" ~clocks:three_phase_clocks (fun b ->
      let p1, p2, _ = phase_ports b in
      let a = B.add_input b "a" and c = B.add_input b "c" in
      let rn = B.fresh_net b "rn" and dn = B.fresh_net b "dn" in
      let q = B.fresh_net b "q" and q2 = B.fresh_net b "q2" in
      cell b "g" "NAND2_X1" [("A1", a); ("A2", c); ("ZN", rn)];
      cell b "h" "XOR2_X1" [("A1", a); ("A2", c); ("Z", dn)];
      cell b "l" "LATHR_X1" [("E", p2); ("D", dn); ("RN", rn); ("Q", q)];
      cell b "m" "LATH_X1" [("E", p1); ("D", q); ("Q", q2)];
      B.add_output b "y" q;
      B.add_output b "y2" q2)

(* a reset flip-flop keeps every wake: RN and D move in the same settle.
   Behind a standard ICG that is off on some lanes, its clock does not
   move again that cycle, so only the settle's wake applies the reset *)
let test_ff_reset_and_data () =
  against_engine "ff-reset" ~clocks:single_clock (fun b ->
      let clk = B.add_input ~clock:true b "clk" in
      let a = B.add_input b "a" and c = B.add_input b "c" in
      let e = B.add_input b "e" in
      let rn = B.fresh_net b "rn" and dn = B.fresh_net b "dn" in
      let gck = B.fresh_net b "gck" in
      let q = B.fresh_net b "q" and q2 = B.fresh_net b "q2" in
      cell b "g" "OR2_X1" [("A1", a); ("A2", c); ("Z", rn)];
      cell b "h" "XNOR2_X1" [("A1", a); ("A2", c); ("ZN", dn)];
      cell b "cg" "ICG_X1" [("CK", clk); ("EN", e); ("GCK", gck)];
      cell b "r" "DFFR_X1" [("CK", gck); ("D", dn); ("RN", rn); ("Q", q)];
      cell b "s" "DFF_X1" [("CK", clk); ("D", q); ("Q", q2)];
      B.add_output b "y" q;
      B.add_output b "y2" q2)

(* a standard ICG's enable moves while CK is high (inputs change right
   after the rising edge): GCK must not move until the next edge; flip-
   flops also hang off a clock buffer and an inverter *)
let test_ff_behind_standard_icg () =
  against_engine "icg-std" ~clocks:single_clock (fun b ->
      let clk = B.add_input ~clock:true b "clk" in
      let a = B.add_input b "a" and e = B.add_input b "e" in
      let gck = B.fresh_net b "gck" and cb = B.fresh_net b "cb" in
      let nclk = B.fresh_net b "nclk" in
      let q1 = B.fresh_net b "q1" and q2 = B.fresh_net b "q2" in
      let q3 = B.fresh_net b "q3" in
      cell b "cg" "ICG_X1" [("CK", clk); ("EN", e); ("GCK", gck)];
      cell b "cbuf" "CLKBUF_X4" [("A", gck); ("Z", cb)];
      cell b "cinv" "INV_X1" [("A", clk); ("ZN", nclk)];
      cell b "f1" "DFF_X1" [("CK", cb); ("D", a); ("Q", q1)];
      cell b "f2" "DFF_X1" [("CK", gck); ("D", q1); ("Q", q2)];
      cell b "f3" "DFF_X1" [("CK", nclk); ("D", q2); ("Q", q3)];
      B.add_output b "y1" q1;
      B.add_output b "y2" q2;
      B.add_output b "y3" q3)

(* an M2 ICG has no enable latch: its GCK follows EN while CK is high,
   so the registers behind it are not ruled.  Inputs commit in the order
   a, b, e: the latch behind the ICG must take its worklist slot from
   a's change, ahead of the p1 latch b wakes, for the AND's glitches to
   match; the flip-flop captures GCK's rise, through a clock buffer,
   within the settle.  An M1 ICG loads on P3 *)
let test_latch_behind_m2_icg () =
  against_engine "icg-m2" ~clocks:three_phase_clocks (fun b ->
      let p1, p2, p3 = phase_ports b in
      let a = B.add_input b "a" and bb = B.add_input b "b" in
      let e = B.add_input b "e" in
      let g2 = B.fresh_net b "g2" and g1 = B.fresh_net b "g1" in
      let q1 = B.fresh_net b "q1" and q2 = B.fresh_net b "q2" in
      let q3 = B.fresh_net b "q3" and q4 = B.fresh_net b "q4" in
      let y = B.fresh_net b "y" and g2b = B.fresh_net b "g2b" in
      cell b "cg2" "ICGNL_X1" [("CK", p1); ("EN", e); ("GCK", g2)];
      cell b "cb" "CLKBUF_X4" [("A", g2); ("Z", g2b)];
      cell b "cg1" "ICGP3_X1" [("CK", p2); ("EN", e); ("P3", p3); ("GCK", g1)];
      cell b "l1" "LATH_X1" [("E", g2); ("D", a); ("Q", q1)];
      cell b "l3" "LATH_X1" [("E", p1); ("D", bb); ("Q", q3)];
      cell b "and" "AND2_X1" [("A1", q1); ("A2", q3); ("Z", y)];
      cell b "l2" "LATH_X1" [("E", g1); ("D", q1); ("Q", q2)];
      cell b "f" "DFF_X1" [("CK", g2b); ("D", bb); ("Q", q4)];
      B.add_output b "y" y;
      B.add_output b "y2" q2;
      B.add_output b "y4" q4)

(* registers that change at one event are released in descending
   instance order, as the engine does: the p2 latches a and b capture
   the inputs' change at p2's rise, a before b in instance order, and
   the active-low p3 latches behind them are open then, so the release
   order is their worklist order and decides the AND's glitches *)
let test_release_order () =
  against_engine "release" ~clocks:three_phase_clocks (fun b ->
      let _, p2, p3 = phase_ports b in
      let da = B.add_input b "da" and db = B.add_input b "db" in
      let qa = B.fresh_net b "qa" and qb = B.fresh_net b "qb" in
      let la = B.fresh_net b "la" and lb = B.fresh_net b "lb" in
      let y = B.fresh_net b "y" in
      cell b "a" "LATH_X1" [("E", p2); ("D", da); ("Q", qa)];
      cell b "b" "LATH_X1" [("E", p2); ("D", db); ("Q", qb)];
      cell b "la" "LATL_X1" [("E", p3); ("D", qa); ("Q", la)];
      cell b "lb" "LATL_X1" [("E", p3); ("D", qb); ("Q", lb)];
      cell b "and" "AND2_X1" [("A1", la); ("A2", lb); ("Z", y)];
      B.add_output b "y" y)

(* a clock derived through logic changes during a data settle, so the
   latch it enables keeps every wake *)
let test_latch_on_logic_clock () =
  against_engine "logic-clock" ~clocks:three_phase_clocks (fun b ->
      let p1, _, _ = phase_ports b in
      let a = B.add_input b "a" and e = B.add_input b "e" in
      let g = B.fresh_net b "g" and q = B.fresh_net b "q" in
      let q2 = B.fresh_net b "q2" in
      cell b "and" "AND2_X1" [("A1", p1); ("A2", e); ("Z", g)];
      cell b "l" "LATH_X1" [("E", g); ("D", a); ("Q", q)];
      cell b "m" "LATL_X1" [("E", g); ("D", q); ("Q", q2)];
      B.add_output b "y" q;
      B.add_output b "y2" q2)

(* A same-phase path re-wakes latches: at p1's rise [la] captures what
   the p3 latch [c] holds, and its new Q reaches the p1 latches [l1]
   (through three buffers) and [l2] (through an inverter) within the
   settle.  Step 4 wakes [l1] and [l2] with the enable: each keeps the
   worklist slot it takes there, so the AND sees their new Qs in that
   order.  A kernel that leaves out those wakes evaluates them when
   their D moves instead, in another order, and counts other glitches
   on [y]. *)
let test_same_phase_rewake () =
  against_engine "rewake" ~clocks:three_phase_clocks (fun b ->
      let p1, _, p3 = phase_ports b in
      let a = B.add_input b "a" in
      let qc = B.fresh_net b "qc" and qa = B.fresh_net b "qa" in
      let b1 = B.fresh_net b "b1" and b2 = B.fresh_net b "b2" in
      let b3 = B.fresh_net b "b3" and na = B.fresh_net b "na" in
      let q1 = B.fresh_net b "q1" and q2 = B.fresh_net b "q2" in
      let y = B.fresh_net b "y" in
      cell b "c" "LATH_X1" [("E", p3); ("D", a); ("Q", qc)];
      cell b "la" "LATH_X1" [("E", p1); ("D", qc); ("Q", qa)];
      cell b "u1" "BUF_X2" [("A", qa); ("Z", b1)];
      cell b "u2" "BUF_X2" [("A", b1); ("Z", b2)];
      cell b "u3" "BUF_X2" [("A", b2); ("Z", b3)];
      cell b "l1" "LATH_X1" [("E", p1); ("D", b3); ("Q", q1)];
      cell b "n" "INV_X1" [("A", qa); ("ZN", na)];
      cell b "l2" "LATH_X1" [("E", p1); ("D", na); ("Q", q2)];
      cell b "and" "AND2_X1" [("A1", q1); ("A2", q2); ("Z", y)];
      B.add_output b "y" y)

(* the rules fire: the converted s5378 (standard, M1 and M2 ICGs) runs
   the same lanes with fewer unit evaluations than with every wake *)
let test_wake_rules_fire () =
  let bench = Option.get (Circuits.Suite.find "s5378") in
  let original = bench.Circuits.Suite.build () in
  let config = Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns in
  let d = (Phase3.Flow.run ~config original).Phase3.Flow.final in
  List.iter
    (fun style ->
      if count_icgs d style = 0 then Alcotest.fail "an ICG style is missing")
    Cell_lib.Cell.[ Icg_standard; Icg_m1_p3; Icg_m2_latchless ];
  let clocks = Phase3.Flow.clocks_of config in
  let stimulus = Phase3.Flow.equivalence_stimulus config original in
  let run gating =
    let k = Sim.Kernel.create ~gating d ~clocks in
    let planes = Sim.Kernel.run_sampled k stimulus (observed d) in
    ((planes, Sim.Kernel.toggles k), (Sim.Kernel.stats k).Sim.Kernel.stat_evals)
  in
  let ruled, evals = run true and every, all_evals = run false in
  check Alcotest.bool "same samples and toggles" true (ruled = every);
  if evals >= all_evals then
    Alcotest.failf "%d evaluations with the rules, %d without" evals all_evals

(* the settle-wave histogram is flushed at the end of create and of
   each run: a run's waves are readable as soon as it returns, and no
   wave holds more units than the kernel has *)
let test_wave_histogram_flush () =
  let d = Circuits.Generator.synthesize (gen_spec 5) in
  let clocks = Sim.Clock_spec.single ~period:1.0 ~port:"clk" in
  let waves () = List.assoc_opt "sim.kernel.wave.units" (Obs.histograms ()) in
  Obs.reset ();
  let k = Sim.Kernel.create d ~clocks in
  if waves () = None then Alcotest.fail "create recorded no waves";
  Obs.reset ();
  Sim.Kernel.run k
    (Sim.Stimulus.draw
       ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 60 + l))
       ~cycles:8 (Sim.Stimulus.Uniform 0.5) (Sim.Stimulus.inputs_of d));
  (match waves () with
   | None -> Alcotest.fail "run recorded no waves"
   | Some h ->
     if Obs.Histogram.max_value h
        > float_of_int (Sim.Kernel.stats k).Sim.Kernel.units then
       Alcotest.fail "a wave holds more units than the kernel");
  Obs.reset ()

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
    Alcotest.test_case "observe: run_sampled refuses a net outside the cone"
      `Quick test_observe_refuses_outside;
    Alcotest.test_case "observe: one half's cone works as that half alone"
      `Quick test_observe_one_half;
    Alcotest.test_case "observe: one output's cone commits inputs on time"
      `Quick test_observe_one_output;
    Alcotest.test_case "heterogeneous lanes" `Quick test_heterogeneous_lanes;
    QCheck_alcotest.to_alcotest prop_packed_run_matches_engine;
    Alcotest.test_case "run_streams adapter = packed run" `Quick
      test_run_streams_adapter;
    Alcotest.test_case "run_streams refusals" `Quick test_run_streams_refusals;
    Alcotest.test_case "suite variants lane-0 identity" `Slow test_suite_variants;
    Alcotest.test_case "wide wave shared fanout vs engine" `Quick
      test_wide_wave_shared_fanout;
    Alcotest.test_case "wake rules: same-phase race-through" `Quick
      test_race_through;
    Alcotest.test_case "wake rules: latch reset and data in one settle" `Quick
      test_latch_reset_and_data;
    Alcotest.test_case "wake rules: ff reset and data in one settle" `Quick
      test_ff_reset_and_data;
    Alcotest.test_case "wake rules: ffs behind a standard ICG" `Quick
      test_ff_behind_standard_icg;
    Alcotest.test_case "wake rules: latches behind M2 and M1 ICGs" `Quick
      test_latch_behind_m2_icg;
    Alcotest.test_case "wake rules: release order" `Quick test_release_order;
    Alcotest.test_case "wake rules: latch on a logic clock" `Quick
      test_latch_on_logic_clock;
    Alcotest.test_case "event plans: same-phase latches keep their re-wake"
      `Quick test_same_phase_rewake;
    Alcotest.test_case "wake rules fire on converted s5378" `Quick
      test_wake_rules_fire;
    Alcotest.test_case "settle histogram flushed per run" `Quick
      test_wave_histogram_flush;
    Alcotest.test_case "oscillation budget" `Quick test_oscillation_budget;
    Alcotest.test_case "popcount" `Quick test_popcount ]
