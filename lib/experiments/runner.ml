type variant = {
  design : Netlist.Design.t;
  regs : int;
  cell_area : float;
  power : Power.Estimate.breakdown;
  wirelength : float;
  clock_buffers : int;
  hold_buffers : int;
  runtime_s : float;
  kernel : Sim.Kernel.stats;
}

type t = {
  bench : Circuits.Suite.benchmark;
  ff : variant;
  ms : variant;
  threep : variant;
  flow : Phase3.Flow.result;
  ilp_time_s : float;
  total_time_s : float;
}

let now () = Unix.gettimeofday ()

(* Monte-Carlo activity: the bit-parallel kernel runs one independently
   seeded workload stream per lane, so one simulation pass gathers
   [Kernel.max_lanes] workloads' worth of toggle statistics.  Activity is
   normalised per lane-cycle, keeping the power model's rates comparable
   to a scalar run.  Lane [l] is seeded [seed + l]. *)
let workload_draw design ~workload ~cycles ~seed =
  Circuits.Workload.draw workload
    ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> seed + l))
    ~cycles design

let power_of design ~clocks ~workload ~cycles ~seed =
  let _, _, m =
    Qor.Collect.implement_and_power design ~clocks
      ~stimulus:(workload_draw design ~workload ~cycles ~seed)
  in
  m.Qor.Collect.detail.Power.Estimate.overall

(* a variant and the primary outputs its power run sampled *)
let variant_of design ~clocks ~stimulus ~t0 =
  let _, hold, m = Qor.Collect.implement_and_power design ~clocks ~stimulus in
  let impl = m.Qor.Collect.impl in
  let stats = Netlist.Stats.compute design in
  ( { design;
      regs = stats.Netlist.Stats.registers;
      cell_area = impl.Physical.Implement.total_area;
      power = m.Qor.Collect.detail.Power.Estimate.overall;
      wirelength = impl.Physical.Implement.total_wirelength;
      clock_buffers =
        impl.Physical.Implement.clock_tree.Physical.Clock_tree.total_buffers;
      hold_buffers = hold.Sta.Hold_fix.buffers_added;
      runtime_s = now () -. t0;
      kernel = m.Qor.Collect.kernel },
    m.Qor.Collect.outputs )

type variant_result =
  | R_ff of (variant * Sim.Equivalence.samples)
  | R_ms of (variant * Sim.Equivalence.samples)
  | R_threep of variant * Phase3.Flow.result

let run ?(cycles = 384) (bench : Circuits.Suite.benchmark) =
  let total0 = now () in
  let period = bench.Circuits.Suite.period_ns in
  let workload = bench.Circuits.Suite.workload in
  let seed = 2024 in
  let original = bench.Circuits.Suite.build () in
  let ff_clocks = Phase3.Flow.reference_clocks original ~period in
  (* the three design styles read the original's inputs (conversion,
     clock gating and hold fixing add none), so one workload draw feeds
     every power measurement *)
  let stimulus = workload_draw original ~workload ~cycles ~seed in
  (* the three variants are independent given the original design, so
     they can run on separate domains; force the lazily parsed cell
     library first — Lazy.force is not domain-safe *)
  ignore (Cell_lib.Default_library.library ());
  let build_ff () =
    let t0 = now () in
    R_ff (variant_of original ~clocks:ff_clocks ~stimulus ~t0)
  in
  let build_ms () =
    let t0 = now () in
    let ms_design = Phase3.Master_slave.convert original in
    R_ms (variant_of ms_design ~clocks:ff_clocks ~stimulus ~t0)
  in
  let build_threep () =
    let t0 = now () in
    let config =
      { (Phase3.Flow.default_config ~period) with
        Phase3.Flow.activity_cycles = cycles;
        (* benchmarks at their published periods can carry real setup
           violations (plasma does) — the harness reports them as data
           in the tables instead of refusing to measure *)
        lint = false }
    in
    let flow = Phase3.Flow.run ~config original in
    let threep_clocks = Phase3.Flow.clocks_of config in
    let threep, _ =
      variant_of flow.Phase3.Flow.final ~clocks:threep_clocks ~stimulus ~t0
    in
    R_threep (threep, flow)
  in
  match
    Array.to_list
      (Jobs.parallel_mapi_array (fun _ f -> f ())
         [| build_ff; build_ms; build_threep |])
  with
  | [R_ff (ff, ff_outputs); R_ms (ms, ms_outputs); R_threep (threep, flow)] ->
    (* the master-slave check: the FF and M-S designs as measured (hold
       fixed), on every lane and cycle of the power draw *)
    (match Sim.Equivalence.verdict ~reference:ff_outputs ~dut:ms_outputs with
     | Sim.Equivalence.Equivalent _ -> ()
     | Sim.Equivalence.Mismatch m ->
       failwith
         (Format.asprintf "master-slave conversion of %s not equivalent: %a"
            bench.Circuits.Suite.bench_name Sim.Equivalence.pp_mismatch m));
    { bench;
      ff;
      ms;
      threep;
      flow;
      ilp_time_s = flow.Phase3.Flow.assignment.Phase3.Assignment.solve_time_s;
      total_time_s = now () -. total0 }
  | _ -> assert false

(* --- QoR run records ------------------------------------------------- *)

let variant_record (t : t) ~tag v =
  let f = float_of_int in
  let metrics =
    [ ("register.count", f v.regs);
      ("area.impl_um2", v.cell_area);
      ("wirelength.um", v.wirelength);
      ("clock_tree.buffers", f v.clock_buffers);
      ("hold.buffers", f v.hold_buffers);
      ("power.clock_mw", v.power.Power.Estimate.clock);
      ("power.seq_mw", v.power.Power.Estimate.seq);
      ("power.comb_mw", v.power.Power.Estimate.comb);
      ("power.total_mw", Power.Estimate.total v.power) ]
  in
  (* flow-derived QoR only exists for the 3-phase variant *)
  let flow_metrics =
    if not (String.equal tag "3p") then []
    else begin
      let flow = t.flow in
      let assignment = flow.Phase3.Flow.assignment in
      let timing = flow.Phase3.Flow.timing in
      [ ("assign.objective",
         f assignment.Phase3.Assignment.inserted_latches);
        ("assign.optimal",
         if assignment.Phase3.Assignment.optimal then 1.0 else 0.0);
        ("timing.worst_setup_slack_ns", timing.Sta.Smo.worst_setup_slack);
        ("timing.worst_hold_slack_ns", timing.Sta.Smo.worst_hold_slack);
        ("timing.violations", f (List.length timing.Sta.Smo.violations)) ]
      @ (match flow.Phase3.Flow.cg_stats with
         | Some s ->
           let gated =
             s.Phase3.Clock_gating.gated_common_enable
             + s.Phase3.Clock_gating.ddcg_gated
           in
           [ ("cg.gated", f gated);
             ("cg.coverage",
              f gated /. f (max 1 s.Phase3.Clock_gating.p2_latches)) ]
         | None -> [])
      @ (match flow.Phase3.Flow.equivalence with
         | Some (Sim.Equivalence.Equivalent _) -> [("equivalence.ok", 1.0)]
         | Some (Sim.Equivalence.Mismatch _) -> [("equivalence.ok", 0.0)]
         | None -> [])
    end
  in
  let wall =
    [("runtime_s", v.runtime_s); ("suite.total_s", t.total_time_s)]
    @ (if String.equal tag "3p" then [("ilp.solve_s", t.ilp_time_s)] else [])
  in
  Qor.Record.make
    ~config:
      [ ("variant", Report.Json.Str tag);
        ("period_ns", Report.Json.Num t.bench.Circuits.Suite.period_ns);
        ("family",
         Report.Json.Str (Circuits.Suite.family_name t.bench.Circuits.Suite.family)) ]
    ~metrics:(metrics @ flow_metrics) ~wall
    (Qor.Collect.provenance ~kind:"experiment"
       ~circuit:(t.bench.Circuits.Suite.bench_name ^ "-" ^ tag))

let records t =
  [ variant_record t ~tag:"ff" t.ff;
    variant_record t ~tag:"ms" t.ms;
    variant_record t ~tag:"3p" t.threep ]
