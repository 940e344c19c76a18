let git_rev () =
  match
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    (line, status)
  with
  | line, Unix.WEXITED 0 when line <> "" -> Some (String.trim line)
  | _ -> None
  | exception _ -> None

let timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let provenance ~kind ~circuit =
  { Record.circuit;
    kind;
    git_rev = git_rev ();
    jobs = Jobs.default_jobs ();
    hostname = (try Unix.gethostname () with _ -> "");
    timestamp = timestamp () }

let solver_name = function
  | `Auto -> "auto"
  | `Ilp -> "ilp"
  | `Mis -> "mis"
  | `Greedy -> "greedy"

let config_json (c : Phase3.Flow.config) =
  let cg = c.Phase3.Flow.clock_gating in
  [ ("solver", Report.Json.Str (solver_name c.Phase3.Flow.solver));
    ("node_budget", Report.Json.Num (float_of_int c.Phase3.Flow.node_budget));
    ("retime", Report.Json.Bool c.Phase3.Flow.retime);
    ("optimize", Report.Json.Bool c.Phase3.Flow.optimize);
    ("cg_common_enable", Report.Json.Bool cg.Phase3.Clock_gating.common_enable);
    ("cg_m2_latch_removal", Report.Json.Bool cg.Phase3.Clock_gating.m2_latch_removal);
    ("cg_ddcg", Report.Json.Bool cg.Phase3.Clock_gating.ddcg);
    ("cg_ddcg_threshold", Report.Json.Num cg.Phase3.Clock_gating.ddcg_threshold);
    ("cg_max_fanout",
     Report.Json.Num (float_of_int cg.Phase3.Clock_gating.max_fanout));
    ("period_ns", Report.Json.Num c.Phase3.Flow.period);
    ("activity_cycles", Report.Json.Num (float_of_int c.Phase3.Flow.activity_cycles));
    ("activity_seed", Report.Json.Num (float_of_int c.Phase3.Flow.activity_seed));
    ("verify_equivalence", Report.Json.Bool c.Phase3.Flow.verify_equivalence);
    ("verify_cycles", Report.Json.Num (float_of_int c.Phase3.Flow.verify_cycles));
    ("lint", Report.Json.Bool c.Phase3.Flow.lint) ]

let rec tree_of_span_node (n : Obs.span_node) =
  { Record.t_name = n.Obs.node_name;
    t_calls = n.Obs.n_calls;
    t_total_s = n.Obs.n_total_s;
    t_self_s = n.Obs.n_self_s;
    t_children = List.map tree_of_span_node n.Obs.n_children }

type measurement = {
  impl : Physical.Implement.t;
  detail : Power.Estimate.detail;
  toggles : int array;
  lane_cycles : int;
  kernel : Sim.Kernel.stats;
}

let measure design ~clocks ~shape ~cycles ~seed =
  let impl = Physical.Implement.run design in
  let kernel = Sim.Kernel.create design ~clocks in
  let stimulus =
    Sim.Stimulus.draw
      ~seeds:(Array.init (Sim.Kernel.lanes kernel) (fun l -> seed + l))
      ~cycles shape (Sim.Stimulus.inputs_of design)
  in
  Sim.Kernel.run kernel stimulus;
  let toggles = Sim.Kernel.toggles kernel
  and lane_cycles = Sim.Kernel.lane_cycles kernel in
  let detail =
    Power.Estimate.run impl ~activity:(toggles, lane_cycles)
      ~period:clocks.Sim.Clock_spec.period
  in
  { impl; detail; toggles; lane_cycles; kernel = Sim.Kernel.stats kernel }

let implement_and_power design ~clocks ~shape ~cycles ~seed =
  let design, hold = Sta.Hold_fix.run design ~clocks in
  (design, hold, measure design ~clocks ~shape ~cycles ~seed)

let record_power design ~clocks ~seed =
  implement_and_power design ~clocks ~shape:(Sim.Stimulus.Uniform 0.3)
    ~cycles:256 ~seed

(* inserted p2 latches keep Convert's marker (Convert.is_inserted_p2)
   through retiming, so counting them in the retimed design gives the
   post-retime inserted count (moves can merge a latch group into one
   latch, so it may be below the ILP objective) *)
let inserted_p2_count d =
  List.length
    (List.filter (Phase3.Convert.is_inserted_p2 d)
       (Netlist.Design.sequential_insts d))

let of_flow ?(extra_wall = []) ~circuit (result : Phase3.Flow.result) =
  let config = result.Phase3.Flow.config in
  let original = Netlist.Stats.compute result.Phase3.Flow.original in
  let final = Netlist.Stats.compute result.Phase3.Flow.final in
  let assignment = result.Phase3.Flow.assignment in
  let inserted = assignment.Phase3.Assignment.inserted_latches in
  let timing = result.Phase3.Flow.timing in
  let f = float_of_int in
  let base_metrics =
    [ ("ff.count", f original.Netlist.Stats.flip_flops);
      ("latch.count", f final.Netlist.Stats.latches);
      ("register.count", f final.Netlist.Stats.registers);
      ("clock_gate.count", f final.Netlist.Stats.clock_gates);
      ("area.cells_um2", final.Netlist.Stats.total_area);
      ("leakage.total_nw", final.Netlist.Stats.total_leakage);
      ("assign.objective", f inserted);
      ("assign.optimal", if assignment.Phase3.Assignment.optimal then 1.0 else 0.0);
      ("inserted_p2.before_retime", f inserted);
      ("inserted_p2.after_retime",
       f (inserted_p2_count result.Phase3.Flow.retimed));
      ("timing.worst_setup_slack_ns", timing.Sta.Smo.worst_setup_slack);
      ("timing.worst_hold_slack_ns", timing.Sta.Smo.worst_hold_slack);
      ("timing.violations", f (List.length timing.Sta.Smo.violations));
      ("timing.max_borrow_ns", timing.Sta.Smo.max_borrow) ]
  in
  let retime_metrics =
    match result.Phase3.Flow.retime_stats with
    | Some s -> [("retime.moves", f s.Phase3.Retime.moves)]
    | None -> []
  in
  let cg_metrics =
    match result.Phase3.Flow.cg_stats with
    | Some s ->
      let gated =
        s.Phase3.Clock_gating.gated_common_enable
        + s.Phase3.Clock_gating.ddcg_gated
      in
      [ ("cg.p2_latches", f s.Phase3.Clock_gating.p2_latches);
        ("cg.gated", f gated);
        ("cg.coverage",
         f gated /. f (max 1 s.Phase3.Clock_gating.p2_latches));
        ("cg.cells_added", f s.Phase3.Clock_gating.cg_cells_added) ]
    | None -> []
  in
  let lint_metrics =
    match result.Phase3.Flow.lint with
    | Some r ->
      [ ("lint.diagnostics", f (List.length r.Lint.Engine.diagnostics));
        ("lint.errors", f r.Lint.Engine.errors);
        ("lint.warnings", f r.Lint.Engine.warnings);
        ("lint.info", f r.Lint.Engine.infos) ]
    | None -> []
  in
  let equivalence_metrics =
    match result.Phase3.Flow.equivalence with
    | Some (Sim.Equivalence.Equivalent { shift }) ->
      [("equivalence.ok", 1.0); ("equivalence.shift", f shift)]
    | Some (Sim.Equivalence.Mismatch _) -> [("equivalence.ok", 0.0)]
    | None -> []
  in
  let power_metrics =
    let clocks = Phase3.Flow.clocks_of config in
    let _, hold, m =
      Obs.span "qor.power" (fun () ->
          record_power result.Phase3.Flow.final ~clocks
            ~seed:config.Phase3.Flow.activity_seed)
    in
    let overall = m.detail.Power.Estimate.overall in
    let leak = m.detail.Power.Estimate.leakage in
    [ ("area.impl_um2", m.impl.Physical.Implement.total_area);
      ("wirelength.um", m.impl.Physical.Implement.total_wirelength);
      ("clock_tree.buffers",
       f m.impl.Physical.Implement.clock_tree.Physical.Clock_tree.total_buffers);
      ("hold.buffers", f hold.Sta.Hold_fix.buffers_added);
      ("hold.fixed", if hold.Sta.Hold_fix.fixed then 1.0 else 0.0);
      ("power.clock_mw", overall.Power.Estimate.clock);
      ("power.seq_mw", overall.Power.Estimate.seq);
      ("power.comb_mw", overall.Power.Estimate.comb);
      ("power.total_mw", Power.Estimate.total overall);
      ("power.leakage_mw", Power.Estimate.total leak);
      (* kernel effectiveness on the activity run; deterministic for a
         fixed circuit/seed/cycle count, so the QoR gate can ratchet
         them like any other metric *)
      ("kernel.units", f m.kernel.Sim.Kernel.units);
      ("kernel.fused_ops", f m.kernel.Sim.Kernel.fused_ops);
      ("kernel.waves_skipped", f m.kernel.Sim.Kernel.stat_waves_skipped);
      ("kernel.cones_skipped", f m.kernel.Sim.Kernel.stat_cones_skipped);
      ("kernel.evals", f m.kernel.Sim.Kernel.stat_evals) ]
  in
  let wall =
    List.map
      (fun (stage, t) -> ("stage." ^ stage, t))
      result.Phase3.Flow.stage_times
    @ [ ("flow.total_s",
         List.fold_left (fun acc (_, t) -> acc +. t) 0.0
           result.Phase3.Flow.stage_times);
        ("assign.solve_s", assignment.Phase3.Assignment.solve_time_s) ]
    @ extra_wall
  in
  Record.make
    ~config:(config_json config)
    ~metrics:
      (base_metrics @ retime_metrics @ cg_metrics @ lint_metrics
       @ equivalence_metrics @ power_metrics)
    ~counters:(Obs.counters ()) ~hists:(Obs.histograms ()) ~wall
    ~gauges:(Obs.gauges ())
    ~tree:(List.map tree_of_span_node (Obs.span_tree ()))
    (provenance ~kind:"flow" ~circuit)
