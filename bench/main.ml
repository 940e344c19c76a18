(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I and II, Figs. 1-4, the run-time discussion), the
   ablation studies from DESIGN.md, and Bechamel micro-benchmarks of the
   flow's expensive steps.

   Usage:
     bench/main.exe                  run everything on the full suite
     bench/main.exe quick            one benchmark per family
     bench/main.exe table1 fig4 ...  selected experiments only
     bench/main.exe micro --json     also write BENCH_sim.json (a QoR record)
     bench/main.exe ilp --json       also write BENCH_ilp.json (a QoR record)
     bench/main.exe simbig --json    serial kernel determinism gate on the
                                     big sbig circuit (252 lanes as four
                                     63-lane kernels), writes
                                     BENCH_sim_big.json (explicit only: not
                                     part of the default everything-run)
     bench/main.exe --qor-dir qor    append QoR run records (suite variants,
                                     micro, ilp) to the given store —
                                     see docs/QOR.md
     bench/main.exe --trace t.json   also write a Chrome trace of the run
                                     (open in chrome://tracing or Perfetto)
                                     and print the Obs summary table
   The suite loop and each benchmark's variants run on multiple domains;
   set THREEPHASE_JOBS=1 to force a serial run.
   Experiments: table1 table2 fig1 fig2 fig3 fig4 runtime
                ablation-solver ablation-cg ablation-retime ablation-ddcg
                ablation-skew ablation-pvt baselines freq-sweep micro ilp
                simbig *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let wants args name =
  args = [] || List.exists (String.equal name) args

let run_suite quick =
  let benches = if quick then Circuits.Suite.quick () else Circuits.Suite.all () in
  (* benchmarks fan out over domains (THREEPHASE_JOBS); results keep the
     suite order.  The shared cell library parses lazily and Lazy.force
     is not domain-safe, so force it before spawning. *)
  ignore (Cell_lib.Default_library.library ());
  Array.to_list
    (Jobs.parallel_mapi_array
       (fun _ b ->
         log "[suite] running %s ..." b.Circuits.Suite.bench_name;
         let r = Experiments.Runner.run b in
         log "[suite] %s done in %.1fs" b.Circuits.Suite.bench_name
           r.Experiments.Runner.total_time_s;
         r)
       (Array.of_list benches))

let print_tables ts = List.iter (fun t -> Report.Table.print t; print_newline ()) ts

(* --- Bechamel micro-benchmarks ------------------------------------- *)

let micro ~json ~qor_dir () =
  let open Bechamel in
  let bench = match Circuits.Suite.find "s5378" with
    | Some b -> b
    | None -> assert false
  in
  let design = bench.Circuits.Suite.build () in
  let config = Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns in
  let asg = Phase3.Assignment.solve design in
  let converted = Phase3.Convert.to_three_phase design asg in
  let clocks = Phase3.Flow.clocks_of config in
  let engine = Sim.Engine.create converted ~clocks in
  let kernel = Sim.Kernel.create converted ~clocks in
  let inputs = Sim.Stimulus.inputs_of converted in
  let stim_cycle =
    match Sim.Stimulus.random ~seed:3 ~cycles:1 ~toggle_probability:0.3 inputs with
    | [cycle] -> cycle
    | _ -> assert false
  in
  let tests =
    Test.make_grouped ~name:"threephase"
      [ Test.make ~name:"table1:assignment-ilp-s5378"
          (Staged.stage (fun () -> Phase3.Assignment.solve ~solver:`Mis design));
        Test.make ~name:"table1:convert-s5378"
          (Staged.stage (fun () -> Phase3.Convert.to_three_phase design asg));
        Test.make ~name:"table1:master-slave-s5378"
          (Staged.stage (fun () -> Phase3.Master_slave.convert design));
        Test.make ~name:"table1:retime-s5378"
          (Staged.stage (fun () -> Phase3.Retime.run converted));
        Test.make ~name:"table1:placement-s5378"
          (Staged.stage (fun () -> Physical.Placement.place design));
        Test.make ~name:"table2:sim-cycle-s5378-3p"
          (Staged.stage (fun () -> ignore (Sim.Engine.run_cycle engine stim_cycle)));
        Test.make ~name:"table2:kernel-cycle-s5378-3p"
          (Staged.stage (fun () -> Sim.Kernel.run_cycle_broadcast kernel stim_cycle));
        Test.make ~name:"table2:smo-check-s5378"
          (Staged.stage (fun () -> Sta.Smo.check converted ~clocks)) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.5) () in
  let raw = Benchmark.all cfg [Toolkit.Instance.monotonic_clock] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Report.Table.create ~title:"Micro-benchmarks (Bechamel, ns/run)"
      [ ("step", Report.Table.Left); ("ns/run", Report.Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let ns_of est =
    match Bechamel.Analyze.OLS.estimates est with
    | Some [v] -> Some v
    | Some _ | None -> None
  in
  List.iter
    (fun (name, est) ->
      let ns =
        match ns_of est with
        | Some v -> Printf.sprintf "%.0f" v
        | None -> "-"
      in
      Report.Table.add_row t [name; ns])
    (* estimates are abstract, so order rows by name alone *)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Report.Table.print t;
  print_newline ();
  if json then begin
    let find infix =
      List.find_map
        (fun (name, est) ->
          if Qor.Diff.contains name infix then ns_of est else None)
        rows
    in
    match find "sim-cycle-s5378", find "kernel-cycle-s5378" with
    | Some scalar_ns, Some kernel_ns ->
      let lanes = Sim.Kernel.lanes kernel in
      let per_lane = kernel_ns /. float_of_int lanes in
      let kstats = Sim.Kernel.stats kernel in
      let cycles = max 1 (Sim.Kernel.cycles kernel) in
      (* Bechamel estimates are wall-clock and the skip counters depend
         on how many cycles Bechamel chose to run: both live in the
         noisy [wall] section, and so does any verdict drawn from them.
         Only the lane count and the compile-time fusion stats are
         deterministic. *)
      let wall =
        ("scalar_ns_per_cycle", scalar_ns)
        :: ("kernel_ns_per_cycle", kernel_ns)
        :: ("kernel_ns_per_lane_cycle", per_lane)
        :: ("kernel_waves_skipped_per_cycle",
            float_of_int kstats.Sim.Kernel.stat_waves_skipped
            /. float_of_int cycles)
        :: ("kernel_cones_skipped_per_cycle",
            float_of_int kstats.Sim.Kernel.stat_cones_skipped
            /. float_of_int cycles)
        :: List.filter_map
             (fun (name, est) ->
               Option.map (fun v -> ("micro." ^ name ^ "_ns", v)) (ns_of est))
             rows
      in
      let record =
        Qor.Record.make
          ~config:
            [ ("bechamel_limit", Report.Json.Num 200.0);
              ("bechamel_quota_s", Report.Json.Num 1.5) ]
          ~metrics:
            [ ("sim.lanes", float_of_int lanes);
              ("sim.kernel.units", float_of_int kstats.Sim.Kernel.units);
              ("sim.kernel.fused_ops",
               float_of_int kstats.Sim.Kernel.fused_ops) ]
          ~headline:
            [ ("benchmark", Report.Json.Str "s5378-3phase");
              ("scalar_ns_per_cycle", Report.Json.Num scalar_ns);
              ("kernel_ns_per_cycle", Report.Json.Num kernel_ns);
              ("lanes", Report.Json.Num (float_of_int lanes));
              ("kernel_ns_per_lane_cycle", Report.Json.Num per_lane);
              ("full_cycle_speedup", Report.Json.Num (scalar_ns /. kernel_ns));
              ("full_cycle_slowdown", Report.Json.Num (kernel_ns /. scalar_ns));
              ("speedup_per_lane_cycle", Report.Json.Num (scalar_ns /. per_lane));
              ("fused_ops",
               Report.Json.Num (float_of_int kstats.Sim.Kernel.fused_ops));
              ("waves_skipped_per_cycle",
               Report.Json.Num
                 (float_of_int kstats.Sim.Kernel.stat_waves_skipped
                  /. float_of_int cycles));
              ("cones_skipped_per_cycle",
               Report.Json.Num
                 (float_of_int kstats.Sim.Kernel.stat_cones_skipped
                  /. float_of_int cycles));
              ("note",
               Report.Json.Str
                 "gate fusion and activity-gated clock events make one \
                  63-lane kernel cycle cheaper than one scalar engine \
                  cycle, so the kernel wins outright — on top of the \
                  per-lane-cycle advantage of advancing all lanes at \
                  once") ]
          ~wall
          (Qor.Collect.provenance ~kind:"bench.sim" ~circuit:"s5378-3phase")
      in
      let oc = open_out "BENCH_sim.json" in
      output_string oc (Qor.Record.render record);
      close_out oc;
      log
        "[micro] wrote BENCH_sim.json (%.2fx faster per full cycle, %.1fx \
         faster per lane-cycle)"
        (scalar_ns /. kernel_ns)
        (scalar_ns /. per_lane);
      Option.iter
        (fun dir ->
          log "[micro] appended QoR record to %s"
            (Qor.Store.append ~dir record))
        qor_dir
    | _ -> log "[micro] missing simulator estimates; BENCH_sim.json not written"
  end

(* --- ILP solver benchmark ------------------------------------------- *)

(* One timed decomposed solve of each circuit's phase-assignment ILP.
   The model size, objective, optimality and search counters are
   deterministic and go in [metrics]; the solve time goes in [wall]. *)
let ilp ~quick ~json ~qor_dir () =
  let ilp_node_budget = 2000 in
  let names = if quick then ["s1196"] else ["s1196"; "s1238"; "s1423"] in
  let t =
    Report.Table.create ~title:"Phase-assignment ILP (decomposed solve)"
      [ ("circuit", Report.Table.Left); ("vars", Report.Table.Right);
        ("comps", Report.Table.Right); ("solve s", Report.Table.Right);
        ("objective", Report.Table.Right); ("nodes", Report.Table.Right);
        ("lp solves", Report.Table.Right);
        ("propagations", Report.Table.Right) ]
  in
  let rows =
    List.filter_map
      (fun name ->
        match Circuits.Suite.find name with
        | None -> None
        | Some b ->
          log "[ilp] %s ..." name;
          let m = Phase3.Assignment.model_of (b.Circuits.Suite.build ()) in
          let t0 = Unix.gettimeofday () in
          let r = Ilp.Branch_bound.solve ~node_budget:ilp_node_budget m in
          let solve_s = Unix.gettimeofday () -. t0 in
          (match r with
           | Some (s, st) ->
             let n_vars = m.Ilp.Model.num_vars in
             Report.Table.add_row t
               [ name; string_of_int n_vars;
                 string_of_int st.Ilp.Branch_bound.components;
                 Printf.sprintf "%.4f" solve_s;
                 Printf.sprintf "%g%s" s.Ilp.Model.objective
                   (if s.Ilp.Model.optimal then "" else "*");
                 string_of_int st.Ilp.Branch_bound.nodes_explored;
                 string_of_int st.Ilp.Branch_bound.lp_solves;
                 string_of_int st.Ilp.Branch_bound.propagations ];
             let fl = float_of_int in
             let metrics =
               [ (name ^ ".num_vars", fl n_vars);
                 (name ^ ".components", fl st.Ilp.Branch_bound.components);
                 (name ^ ".objective", s.Ilp.Model.objective);
                 (name ^ ".optimal", if s.Ilp.Model.optimal then 1.0 else 0.0);
                 (name ^ ".nodes", fl st.Ilp.Branch_bound.nodes_explored);
                 (name ^ ".lp_solves", fl st.Ilp.Branch_bound.lp_solves);
                 (name ^ ".propagations", fl st.Ilp.Branch_bound.propagations) ]
             in
             Some (metrics, (name ^ ".solve_s", solve_s))
           | None ->
             log "[ilp] %s: infeasible model?!" name;
             None))
      names
  in
  Report.Table.print t;
  print_newline ();
  if json then begin
    let record =
      Qor.Record.make
        ~config:
          [ ("node_budget", Report.Json.Num (float_of_int ilp_node_budget));
            ("quick", Report.Json.Bool quick) ]
        ~metrics:(List.concat_map fst rows)
        ~wall:(List.map snd rows)
        (Qor.Collect.provenance ~kind:"bench.ilp"
           ~circuit:"phase-assignment-ilp")
    in
    let oc = open_out "BENCH_ilp.json" in
    output_string oc (Qor.Record.render record);
    close_out oc;
    log "[ilp] wrote BENCH_ilp.json";
    Option.iter
      (fun dir ->
        log "[ilp] appended QoR record to %s" (Qor.Store.append ~dir record))
      qor_dir
  end

(* --- Big-circuit simulator benchmark -------------------------------- *)

(* The serial kernel on the s38417-class [sbig] circuit (~10x s5378's
   registers, three very wide levelized waves), in Monte-Carlo shape:
   252 lanes, each driven by its own random stream, so nearly every cone
   is dirty at every clock event.  Lanes never interact, so the run is
   four 63-lane kernels, kernel [k] taking lanes [63k .. 63k+62], run one
   after the other; per-net toggles and the skip counters are summed
   over the four, and the compile-time shape (units, fused ops) is the
   same in each.

   Record layout follows the QoR determinism contract (docs/QOR.md):
   everything in [metrics] is independent of timing and of
   THREEPHASE_JOBS — CI diffs two runs of this experiment under
   THREEPHASE_JOBS=1 and =4 and any metrics drift fails — while the run
   time lives in [wall]/[headline]. *)
let simbig ~json ~qor_dir () =
  let n_kernels = 4 and perf_cycles = 20 and reps = 3 in
  let lanes = n_kernels * Sim.Kernel.max_lanes in
  let bench =
    match Circuits.Suite.find "sbig" with
    | Some b -> b
    | None -> assert false
  in
  log "[simbig] building sbig ...";
  let design = bench.Circuits.Suite.build () in
  let asg = Phase3.Assignment.solve design in
  let converted = Phase3.Convert.to_three_phase design asg in
  let config =
    Phase3.Flow.default_config ~period:bench.Circuits.Suite.period_ns
  in
  let clocks = Phase3.Flow.clocks_of config in
  let inputs = Sim.Stimulus.inputs_of converted in
  let stim =
    Array.init n_kernels (fun k ->
        Sim.Stimulus.draw
          ~seeds:
            (Array.init Sim.Kernel.max_lanes (fun l ->
                 9000 + (k * Sim.Kernel.max_lanes) + l))
          ~cycles:perf_cycles (Sim.Stimulus.Uniform 0.35) inputs)
  in
  log "[simbig] timing serial kernels ...";
  let kernels =
    Array.init n_kernels (fun _ -> Sim.Kernel.create converted ~clocks)
  in
  let pass () =
    Array.iteri (fun k kernel -> Sim.Kernel.run kernel stim.(k)) kernels
  in
  let sum f = Array.fold_left (fun acc k -> acc + f k) 0 kernels in
  (* a warm-up pass pages in the bitplanes; the metrics count all
     [reps + 1] passes, the time is the best timed one *)
  pass ();
  let t_serial = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    pass ();
    t_serial := Float.min !t_serial (Unix.gettimeofday () -. t0)
  done;
  let t_serial = !t_serial in
  (* per-net toggle counts summed over the kernels, folded to one exact
     fingerprint *)
  let toggles =
    Array.init (Array.length (Sim.Kernel.toggles kernels.(0))) (fun n ->
        sum (fun k -> (Sim.Kernel.toggles k).(n)))
  in
  let total = Array.fold_left ( + ) 0 toggles in
  let checksum =
    Array.fold_left (fun acc t -> (acc * 131 + t) land 0x3FFFFFFF) 0 toggles
  in
  let kstats = Sim.Kernel.stats kernels.(0) in
  let sum_stat f = sum (fun k -> f (Sim.Kernel.stats k)) in
  log "[simbig] serial %.3fs per %d-lane x %d-cycle pass" t_serial lanes
    perf_cycles;
  if json then begin
    let fl = float_of_int in
    let record =
      Qor.Record.make
        ~config:
          [ ("perf_cycles", Report.Json.Num (fl perf_cycles));
            ("lanes", Report.Json.Num (fl lanes));
            ("timed_reps", Report.Json.Num (fl reps)) ]
        ~metrics:
          [ ("sim.lanes", fl (sum Sim.Kernel.lanes));
            ("sim.kernel.units", fl kstats.Sim.Kernel.units);
            ("sim.kernel.fused_ops", fl kstats.Sim.Kernel.fused_ops);
            ("sim.kernel.waves_skipped",
             fl (sum_stat (fun s -> s.Sim.Kernel.stat_waves_skipped)));
            ("sim.kernel.cones_skipped",
             fl (sum_stat (fun s -> s.Sim.Kernel.stat_cones_skipped)));
            ("sim.kernel.evals",
             fl (sum_stat (fun s -> s.Sim.Kernel.stat_evals)));
            ("sim.toggles_total", fl total);
            ("sim.toggles_checksum", fl checksum) ]
        ~headline:
          [ ("benchmark", Report.Json.Str "sbig-3phase");
            ("serial_s", Report.Json.Num t_serial) ]
        ~wall:[ ("serial_s", t_serial) ]
        (Qor.Collect.provenance ~kind:"bench.sim_big" ~circuit:"sbig-3phase")
    in
    let oc = open_out "BENCH_sim_big.json" in
    output_string oc (Qor.Record.render record);
    close_out oc;
    log "[simbig] wrote BENCH_sim_big.json";
    Option.iter
      (fun dir ->
        log "[simbig] appended QoR record to %s" (Qor.Store.append ~dir record))
      qor_dir
  end

let extract_opt key args =
  let rec go acc = function
    | k :: value :: rest when String.equal k key ->
      (Some value, List.rev_append acc rest)
    | a :: rest -> go (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let trace, args = extract_opt "--trace" args in
  let qor_dir, args = extract_opt "--qor-dir" args in
  let quick = List.exists (String.equal "quick") args in
  let json = List.exists (String.equal "--json") args in
  let args =
    List.filter
      (fun a -> not (String.equal a "quick" || String.equal a "--json"))
      args
  in
  let need_suite =
    List.exists (wants args) ["table1"; "table2"; "runtime"]
  in
  let results = if need_suite then run_suite quick else [] in
  Option.iter
    (fun dir ->
      List.iter
        (fun r ->
          List.iter
            (fun record -> ignore (Qor.Store.append ~dir record))
            (Experiments.Runner.records r))
        results;
      if results <> [] then
        log "[suite] appended %d QoR records to %s" (3 * List.length results)
          dir)
    qor_dir;
  if wants args "table1" then print_tables (Experiments.Tables.table1 results);
  if wants args "table2" then print_tables (Experiments.Tables.table2 results);
  if wants args "fig1" then print_tables [Experiments.Tables.fig1 ()];
  if wants args "fig2" then print_tables [Experiments.Tables.fig2 ()];
  if wants args "fig3" then print_tables [Experiments.Tables.fig3 ()];
  if wants args "fig4" then begin
    log "[fig4] CPU workload sweep ...";
    print_tables [Experiments.Tables.fig4 ()]
  end;
  if wants args "runtime" then
    print_tables
      [ Experiments.Tables.runtime results;
        Experiments.Tables.runtime_stages results ];
  if wants args "ablation-solver" then
    print_tables [Experiments.Ablation.solver ()];
  if wants args "ablation-cg" then
    print_tables [Experiments.Ablation.clock_gating ()];
  if wants args "ablation-retime" then
    print_tables [Experiments.Ablation.retiming ()];
  if wants args "ablation-ddcg" then
    print_tables [Experiments.Ablation.ddcg_fanout ()];
  if wants args "ablation-skew" then
    print_tables [Experiments.Ablation.skew_tolerance ()];
  if wants args "baselines" then
    print_tables [Experiments.Tables.baselines ()];
  if wants args "ablation-pvt" then
    print_tables [Experiments.Ablation.pvt ()];
  if wants args "freq-sweep" then
    print_tables [Experiments.Tables.frequency_sweep ()];
  if wants args "micro" then micro ~json ~qor_dir ();
  if wants args "ilp" then ilp ~quick ~json ~qor_dir ();
  if List.exists (String.equal "simbig") args then simbig ~json ~qor_dir ();
  match trace with
  | None -> ()
  | Some path ->
    Obs.write_chrome_trace path;
    print_tables [Obs.summary_table ()];
    log "[obs] wrote %s" path
