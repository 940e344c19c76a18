(* The traced replay: each stage of a conversion called again through
   its own layer's public function, in Phase3.Flow.run's order and
   config (Experiments.Runner.run's on paper-tables), with a clock and an
   allocation meter around each call.  Nothing inside lib/ is
   instrumented.  bench.ml keeps these numbers only while the replayed
   netlist matches the program's own output byte for byte. *)

(* Each timed layer gives a <layer>_s and a <layer>_mw metric. *)
let layers =
  [ "netlist_io.verilog.parse"; "netlist.check.validate";
    "phase3.assignment.solve"; "phase3.convert"; "phase3.retime";
    "sim.kernel.create"; "sim.stimulus.build"; "sim.kernel.run";
    "phase3.clock_gating"; "sta.smo.check"; "lint.engine.run";
    "sim.equivalence.check"; "netlist_io.verilog.write";
    "phase3.master_slave.convert"; "sta.hold_fix.run";
    "physical.implement.run"; "power.estimate.run" ]

(* Work the layers already return or count, read after each call. *)
let counts =
  [ "sim.kernel.lane_cycles"; "sim.kernel.units"; "sim.kernel.cones_skipped";
    "lint.diagnostics"; "sta.smo.iterations"; "ilp.nodes"; "ilp.lp_solves";
    "ilp.components"; "mis.nodes" ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let get (t : t) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)

let add t name v = Hashtbl.replace t name (get t name +. v)

let count t name n = add t name (float_of_int n)

let timed t layer f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add t (layer ^ "_s") (Unix.gettimeofday () -. t0);
  add t (layer ^ "_mw") ((Gc.allocated_bytes () -. a0) /. 8e6);
  r

exception Refused of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

let validate t d =
  match timed t "netlist.check.validate" (fun () -> Netlist.Check.validate d) with
  | Ok () -> ()
  | Error errors ->
    refuse "%s is invalid: %s" d.Netlist.Design.design_name
      (String.concat "; " errors)

let kernel_counts t kernel =
  let s = Sim.Kernel.stats kernel in
  count t "sim.kernel.lane_cycles" (Sim.Kernel.lane_cycles kernel);
  count t "sim.kernel.units" s.Sim.Kernel.units;
  count t "sim.kernel.cones_skipped" s.Sim.Kernel.stat_cones_skipped

(* Phase3.Flow.run *)
let flow t (config : Phase3.Flow.config) d =
  validate t d;
  (* the solver counters read below are this design's alone *)
  Obs.reset ();
  let a =
    timed t "phase3.assignment.solve" (fun () ->
        let a =
          Phase3.Assignment.solve ~solver:config.Phase3.Flow.solver
            ~node_budget:config.Phase3.Flow.node_budget d
        in
        (match Phase3.Assignment.validate d a with
         | [] -> ()
         | issues ->
           refuse "assignment invalid: %s" (String.concat "; " issues));
        a)
  in
  List.iter
    (fun c -> count t c (Obs.counter_of c))
    [ "ilp.nodes"; "ilp.lp_solves"; "ilp.components"; "mis.nodes" ];
  let ports = config.Phase3.Flow.ports in
  let converted =
    timed t "phase3.convert" (fun () ->
        Phase3.Convert.to_three_phase ~ports d a)
  in
  validate t converted;
  let retimed =
    if config.Phase3.Flow.retime then
      timed t "phase3.retime" (fun () -> fst (Phase3.Retime.run converted))
    else converted
  in
  let clocks = Phase3.Flow.clocks_of config in
  let options = config.Phase3.Flow.clock_gating in
  let final =
    if options.Phase3.Clock_gating.common_enable
       || options.Phase3.Clock_gating.ddcg
       || options.Phase3.Clock_gating.m2_latch_removal
    then begin
      let kernel =
        timed t "sim.kernel.create" (fun () ->
            Sim.Kernel.create retimed ~clocks)
      in
      let streams =
        timed t "sim.stimulus.build" (fun () ->
            let inputs = Sim.Stimulus.inputs_of retimed in
            Array.init (Sim.Kernel.lanes kernel) (fun l ->
                Sim.Stimulus.random
                  ~seed:(config.Phase3.Flow.activity_seed + l)
                  ~cycles:config.Phase3.Flow.activity_cycles
                  ~toggle_probability:0.25 inputs))
      in
      timed t "sim.kernel.run" (fun () -> Sim.Kernel.run_streams kernel streams);
      kernel_counts t kernel;
      let activity = (Sim.Kernel.toggles kernel, Sim.Kernel.lane_cycles kernel) in
      timed t "phase3.clock_gating" (fun () ->
          fst (Phase3.Clock_gating.run ~options ~ports ~activity retimed))
    end
    else retimed
  in
  let final =
    if config.Phase3.Flow.optimize then fst (Netlist.Optimize.run final)
    else final
  in
  validate t final;
  let timing = timed t "sta.smo.check" (fun () -> Sta.Smo.check final ~clocks) in
  count t "sta.smo.iterations" timing.Sta.Smo.iterations;
  if config.Phase3.Flow.lint then begin
    let report =
      timed t "lint.engine.run" (fun () -> Lint.Engine.run final ~clocks)
    in
    count t "lint.diagnostics" (List.length report.Lint.Engine.diagnostics);
    if not (Lint.Engine.ok report) then
      refuse "fails lint with %d error(s)" report.Lint.Engine.errors
  end;
  if config.Phase3.Flow.verify_equivalence then begin
    let stimulus =
      timed t "sim.stimulus.build" (fun () ->
          Sim.Stimulus.random ~seed:(config.Phase3.Flow.activity_seed + 17)
            ~cycles:config.Phase3.Flow.verify_cycles ~toggle_probability:0.35
            (Sim.Stimulus.inputs_of d))
    in
    match
      timed t "sim.equivalence.check" (fun () ->
          Sim.Equivalence.check ~reference:d ~dut:final
            ~reference_clocks:
              (Phase3.Flow.reference_clocks d ~period:config.Phase3.Flow.period)
            ~dut_clocks:clocks ~stimulus ())
    with
    | Sim.Equivalence.Equivalent _ -> ()
    | Sim.Equivalence.Mismatch _ -> refuse "not stream-equivalent"
  end;
  final

(* Experiments.Runner.run's testbench length and stimulus seed *)
let tables_cycles = 384
let tables_seed = 2024

let evaluate t design ~clocks ~workload =
  let design, _ =
    timed t "sta.hold_fix.run" (fun () -> Sta.Hold_fix.run design ~clocks)
  in
  let impl =
    timed t "physical.implement.run" (fun () -> Physical.Implement.run design)
  in
  let kernel =
    timed t "sim.kernel.create" (fun () -> Sim.Kernel.create design ~clocks)
  in
  let streams =
    timed t "sim.stimulus.build" (fun () ->
        Array.init (Sim.Kernel.lanes kernel) (fun l ->
            Circuits.Workload.stimulus workload ~seed:(tables_seed + l)
              ~cycles:tables_cycles design))
  in
  timed t "sim.kernel.run" (fun () -> Sim.Kernel.run_streams kernel streams);
  kernel_counts t kernel;
  let activity = (Sim.Kernel.toggles kernel, Sim.Kernel.lane_cycles kernel) in
  let detail =
    timed t "power.estimate.run" (fun () ->
        Power.Estimate.run impl ~activity ~period:clocks.Sim.Clock_spec.period)
  in
  Power.Estimate.total detail.Power.Estimate.overall

(* Experiments.Runner.run: flip-flop, master-slave and 3-phase variants *)
let tables t (b : Circuits.Suite.benchmark) =
  let original = b.Circuits.Suite.build () in
  let period = b.Circuits.Suite.period_ns
  and workload = b.Circuits.Suite.workload in
  let ff_clocks = Phase3.Flow.reference_clocks original ~period in
  ignore (evaluate t original ~clocks:ff_clocks ~workload : float);
  let ms =
    timed t "phase3.master_slave.convert" (fun () ->
        Phase3.Master_slave.convert original)
  in
  let stimulus =
    timed t "sim.stimulus.build" (fun () ->
        Circuits.Workload.stimulus workload ~seed:(tables_seed + 1)
          ~cycles:128 original)
  in
  (match
     timed t "sim.equivalence.check" (fun () ->
         Sim.Equivalence.check ~reference:original ~dut:ms
           ~reference_clocks:ff_clocks ~dut_clocks:ff_clocks ~stimulus ())
   with
   | Sim.Equivalence.Equivalent _ -> ()
   | Sim.Equivalence.Mismatch _ ->
     refuse "master-slave conversion is not equivalent");
  ignore (evaluate t ms ~clocks:ff_clocks ~workload : float);
  let config =
    { (Phase3.Flow.default_config ~period) with
      Phase3.Flow.verify_equivalence = true;
      activity_cycles = tables_cycles;
      lint = false }
  in
  let final = flow t config original in
  (final, evaluate t final ~clocks:(Phase3.Flow.clocks_of config) ~workload)

(* The replayed final netlist, and on paper-tables the 3-phase power:
   what bench.ml compares with the program's own output. *)
let design t (w : Draw.workload) i d =
  if w.Draw.paper_tables then begin
    let final, power = tables t (Pass.bench_of i d) in
    (Netlist_io.Verilog.write final, Some power)
  end
  else begin
    let final = flow t (Pass.config i) d in
    ( timed t "netlist_io.verilog.write" (fun () ->
          Netlist_io.Verilog.write final),
      None )
  end
