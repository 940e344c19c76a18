(* ff2latch — convert a flip-flop netlist to a 3-phase latch-based design.

   Reads ISCAS89 [.bench] or the structural-Verilog subset, runs the
   conversion flow (ILP phase assignment, netlist rewrite, retiming, clock
   gating), verifies stream equivalence, checks multi-phase timing, and
   writes the converted netlist.  Subcommands also expose the
   master-slave baseline, design statistics and power estimation. *)

open Cmdliner

let library = Cell_lib.Default_library.library ()

(* A file the command cannot open, read or write — a missing
   directory, a directory where a file belongs, no permission — is
   refused like any other bad input: [Failure] with a one-line message
   naming the path, which each command turns into exit 124. *)
let guard_io verb path f =
  let refuse reason =
    failwith (Printf.sprintf "cannot %s %s: %s" verb path reason)
  in
  match f () with
  | x -> x
  | exception Sys_error msg ->
    (* a failed open already leads with the path *)
    let prefix = path ^ ": " in
    refuse
      (if String.starts_with ~prefix msg then
         String.sub msg (String.length prefix)
           (String.length msg - String.length prefix)
       else msg)
  | exception Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e)

let read_file path =
  guard_io "read" path (fun () ->
      In_channel.with_open_text path In_channel.input_all)

let write_file path text =
  guard_io "write" path (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text))

(* the part of a command that writes its results: a refused write ends
   it with exit 124 *)
let refusing f =
  match f () with r -> r | exception Failure msg -> `Error (false, msg)

(* Extension dispatch: [.bench] is ISCAS89, [.sv] goes through the
   word-level elaborator (parameters, vectors, always_ff/always_comb,
   hierarchy — see docs/RTL.md), anything else is read as the flat
   structural-Verilog exchange subset.  Front-end errors carry
   file:line:col positions; re-raise them as [Failure] so cmdliner
   prints them as clean one-liners. *)
let read_design ?top path =
  let src = read_file path in
  let name = Filename.remove_extension (Filename.basename path) in
  try
    if Filename.check_suffix path ".bench" then
      Netlist_io.Bench_format.parse ~name ~library src
    else if Filename.check_suffix path ".sv" then
      Elab.Elaborate.read ~file:path ?top ~library src
    else Netlist_io.Verilog.parse ~file:path ~library src
  with
  | Elab.Diag.Error (_, msg) | Netlist_io.Verilog.Error (_, msg) ->
    failwith msg

let write_design path d =
  let text =
    if Filename.check_suffix path ".bench" then Netlist_io.Bench_format.write d
    else Netlist_io.Verilog.write d
  in
  write_file path text

(* [suite:NAME] builds a benchmark from lib/circuits instead of reading
   a file — the CI QoR gate runs ISCAS circuits without shipping their
   netlists.  Returns the design and, for suite circuits, the
   benchmark's published clock period. *)
let resolve_input ?top spec =
  match String.length spec >= 6 && String.sub spec 0 6 = "suite:" with
  | true ->
    let name = String.sub spec 6 (String.length spec - 6) in
    (match Circuits.Suite.find name with
     | Some b -> (b.Circuits.Suite.build (), Some b.Circuits.Suite.period_ns)
     | None ->
       failwith
         (Printf.sprintf "unknown suite circuit %S (try s1196, s5378, ...)"
            name))
  | false ->
    if not (Sys.file_exists spec) then
      failwith (Printf.sprintf "no such file: %s" spec);
    if Sys.is_directory spec then
      failwith (Printf.sprintf "%s is a directory, not a design file" spec);
    (read_design ?top spec, None)

let input_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"INPUT"
           ~doc:"Input design (.bench, .v, or word-level .sv RTL), or \
                 suite:NAME for a built-in benchmark circuit (e.g. \
                 suite:s1196).")

let top_arg =
  Arg.(value & opt (some string) None
       & info ["top"] ~docv:"MODULE"
           ~doc:"Top module of a .sv input (default: the unique module \
                 that no other module instantiates).")

let constraints_arg =
  Arg.(value & opt (some string) None
       & info ["constraints"] ~docv:"FILE"
           ~doc:"Read an SDC file (create_clock, set_input_delay, ...); \
                 the first clock's period is used when --period is not \
                 given.")

let output_arg =
  Arg.(value & opt (some string) None
       & info ["o"; "output"] ~docv:"OUTPUT" ~doc:"Output netlist path (.v or .bench).")

let period_arg =
  Arg.(value & opt (some float) None
       & info ["period"] ~docv:"NS"
           ~doc:"Clock period in nanoseconds, positive and finite \
                 (default: the suite circuit's published period, or 1.0).")

let read_constraints path =
  match Netlist_io.Sdc.parse ~file:path (read_file path) with
  | cs -> cs
  | exception Netlist_io.Sdc.Error (_, msg) -> failwith msg

(* The clock period of a run: --period, else the first SDC clock's,
   else the suite circuit's published one, else 1.0 ns.  Raises
   [Failure] unless it is positive and finite. *)
let resolve_period ~constraints period suite_period =
  let sdc_period = Option.bind constraints Netlist_io.Sdc.period in
  let p =
    match period, sdc_period, suite_period with
    | Some p, _, _ | None, Some p, _ | None, None, Some p -> p
    | None, None, None -> 1.0
  in
  if Float.is_finite p && p > 0.0 then p
  else failwith (Printf.sprintf "clock period %g ns must be positive and finite" p)

(* [power], [timing] and [master-slave] need a well-formed, acyclic
   design, as [convert] does; raises [Failure] otherwise *)
let validate_input d =
  match Netlist.Check.validate d with
  | Ok () -> ()
  | Error errors ->
    failwith
      (Printf.sprintf "input design %s is invalid: %s"
         d.Netlist.Design.design_name (String.concat "; " errors))

(* clock spec from a design's declared clock ports: three ports is a
   converted 3-phase design, one (or none) is a plain FF design *)
let clocks_of_design d ~period =
  match d.Netlist.Design.clock_ports with
  | [p1; p2; p3] -> Sim.Clock_spec.three_phase ~period ~p1 ~p2 ~p3 ()
  | [port] -> Sim.Clock_spec.single ~period ~port
  | [] -> Sim.Clock_spec.single ~period ~port:"clock"
  | _ :: _ -> failwith "unsupported clocking"

let solver_conv =
  Arg.enum [("auto", `Auto); ("ilp", `Ilp); ("mis", `Mis); ("greedy", `Greedy)]

let solver_arg =
  Arg.(value & opt solver_conv `Auto
       & info ["solver"] ~docv:"SOLVER"
           ~doc:"Assignment solver: auto, ilp (literal formulation), mis \
                 (independent-set reduction), greedy.")

let no_retime_arg =
  Arg.(value & flag & info ["no-retime"] ~doc:"Skip the modified retiming step.")

let no_cg_arg =
  Arg.(value & flag & info ["no-clock-gating"] ~doc:"Skip p2 clock gating.")

let no_verify_arg =
  Arg.(value & flag & info ["no-verify"] ~doc:"Skip stream-equivalence checking.")

let optimize_arg =
  Arg.(value & flag
       & info ["optimize"]
           ~doc:"Run constant folding, buffer collapsing and a dead-logic \
                 sweep on the converted netlist.")

let sdc_arg =
  Arg.(value & opt (some string) None
       & info ["sdc"] ~docv:"FILE" ~doc:"Also write SDC clock constraints.")

let vcd_arg =
  Arg.(value & opt (some string) None
       & info ["vcd"] ~docv:"FILE"
           ~doc:"Also dump a VCD waveform of 64 random cycles.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info ["trace"] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the whole run (one span \
                 per flow stage, counters for the solvers and simulators); \
                 open it in chrome://tracing or https://ui.perfetto.dev.")

let timings_arg =
  Arg.(value & flag
       & info ["timings"]
           ~doc:"Print the observability summary table (per-stage wall-clock, \
                 solver and simulator counters) after the flow.")

let json_arg =
  Arg.(value & flag
       & info ["json"]
           ~doc:"Print the QoR run record as JSON on standard output and \
                 route every other message (including --trace/--timings \
                 output) to standard error, so the output pipes cleanly \
                 into jq or a file.  The converted netlist is only written \
                 when -o is given.")

let qor_dir_arg =
  Arg.(value & opt (some string) None
       & info ["qor-dir"] ~docv:"DIR"
           ~doc:"Append the run record to the QoR store at $(docv) \
                 (DIR/runs/<id>.json plus a DIR/history.jsonl line); see \
                 docs/QOR.md.")

let convert_cmd =
  let run input output period solver no_retime no_cg no_verify optimize sdc vcd
      trace timings json qor_dir top constraints =
    match
      let d, suite_period = resolve_input ?top input in
      let cs = Option.map read_constraints constraints in
      (d, cs, resolve_period ~constraints:cs period suite_period)
    with
    | exception Failure msg -> `Error (false, msg)
    | d, cs, period ->
    (* under --json, stdout carries exactly one JSON document: the run
       record.  Everything human-facing goes to stderr. *)
    let out = if json then stderr else stdout in
    let say fmt = Printf.fprintf out (fmt ^^ "\n%!") in
    (match cs with
     | None -> ()
     | Some cs ->
       say "constraints: %d clock(s), %d input / %d output delays%s"
         (List.length cs.Netlist_io.Sdc.clocks)
         (List.length cs.Netlist_io.Sdc.input_delays)
         (List.length cs.Netlist_io.Sdc.output_delays)
         (if cs.Netlist_io.Sdc.ignored = [] then ""
          else
            Printf.sprintf " (%d unsupported commands ignored)"
              (List.length cs.Netlist_io.Sdc.ignored));
       (match Netlist_io.Sdc.clock_port cs with
        | Some p when not (Netlist.Design.is_clock_port d p) ->
          say "warning: constraints clock port '%s' is not a clock of %s" p
            d.Netlist.Design.design_name
        | _ -> ()));
    let cg =
      if no_cg then
        { Phase3.Clock_gating.default_options with
          Phase3.Clock_gating.common_enable = false;
          m2_latch_removal = false;
          ddcg = false }
      else Phase3.Clock_gating.default_options
    in
    let config =
      { (Phase3.Flow.default_config ~period) with
        Phase3.Flow.solver;
        retime = not no_retime;
        optimize;
        clock_gating = cg;
        verify_equivalence = not no_verify }
    in
    let t0 = Unix.gettimeofday () in
    match Phase3.Flow.run ~config d with
    | exception Phase3.Flow.Flow_error msg -> `Error (false, msg)
    | result ->
      refusing @@ fun () ->
      let final = result.Phase3.Flow.final in
      say "%s: %d FFs -> %d latches (%d inserted p2, %s)"
        d.Netlist.Design.design_name
        (Netlist.Stats.compute d).Netlist.Stats.flip_flops
        (Netlist.Stats.compute final).Netlist.Stats.latches
        result.Phase3.Flow.assignment.Phase3.Assignment.inserted_latches
        (if result.Phase3.Flow.assignment.Phase3.Assignment.optimal
         then "optimal" else "best effort");
      say "timing: %s"
        (Format.asprintf "%a" Sta.Smo.pp_report result.Phase3.Flow.timing);
      (match result.Phase3.Flow.equivalence with
       | Some (Sim.Equivalence.Equivalent { shift }) ->
         say "equivalence: ok (latency shift %d)" shift
       | Some (Sim.Equivalence.Mismatch _) | None -> ());
      (match output with
       | Some path -> write_design path final; say "wrote %s" path
       | None ->
         if json then say "no -o given: netlist not written"
         else print_string (Netlist_io.Verilog.write final));
      (match sdc with
       | Some path ->
         write_file path
           (Netlist_io.Sdc.write final ~clocks:(Phase3.Flow.clocks_of config));
         say "wrote %s" path
       | None -> ());
      (match vcd with
       | Some path ->
         let kernel =
           Sim.Kernel.create final ~clocks:(Phase3.Flow.clocks_of config)
         in
         let draw =
           Sim.Stimulus.draw
             ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> 42 + l))
             ~cycles:64 (Sim.Stimulus.Uniform 0.3)
             (Sim.Stimulus.inputs_of final)
         in
         write_file path (Sim.Vcd.dump kernel draw);
         say "wrote %s" path
       | None -> ());
      (match result.Phase3.Flow.stage_times with
       | [] -> ()
       | times when timings ->
         Printf.fprintf out "stage times:";
         List.iter (fun (s, t) -> Printf.fprintf out " %s %.3fs" s t) times;
         Printf.fprintf out "\n%!"
       | _ -> ());
      if timings then
        output_string out (Report.Table.render (Obs.summary_table ()));
      (* the record also runs placement + power estimation, inside a
         qor.power Obs span, so capture the rollup afterwards *)
      let record =
        if json || qor_dir <> None then
          Some
            (Qor.Collect.of_flow
               ~circuit:d.Netlist.Design.design_name
               ~extra_wall:[("convert.total_s", Unix.gettimeofday () -. t0)]
               result)
        else None
      in
      (match trace with
       | Some path ->
         guard_io "write" path (fun () -> Obs.write_chrome_trace path);
         say "wrote %s" path
       | None -> ());
      (match record, qor_dir with
       | Some r, Some dir ->
         let path = guard_io "write" dir (fun () -> Qor.Store.append ~dir r) in
         say "wrote %s" path
       | _ -> ());
      (match record with
       | Some r when json -> print_string (Qor.Record.render r)
       | _ -> ());
      `Ok ()
  in
  Cmd.v (Cmd.info "convert" ~doc:"Convert a FF netlist to 3-phase latches.")
    Term.(ret (const run $ input_arg $ output_arg $ period_arg $ solver_arg
               $ no_retime_arg $ no_cg_arg $ no_verify_arg $ optimize_arg
               $ sdc_arg $ vcd_arg $ trace_arg $ timings_arg $ json_arg
               $ qor_dir_arg $ top_arg $ constraints_arg))

let master_slave_cmd =
  let run input output =
    match
      let d, _ = resolve_input input in
      validate_input d;
      d
    with
    | exception Failure msg -> `Error (false, msg)
    | d ->
    let ms = Phase3.Master_slave.convert d in
    refusing @@ fun () ->
    (match output with
     | Some path -> write_design path ms; Printf.printf "wrote %s\n" path
     | None -> print_string (Netlist_io.Verilog.write ms));
    `Ok ()
  in
  Cmd.v (Cmd.info "master-slave" ~doc:"Produce the master-slave latch baseline.")
    Term.(ret (const run $ input_arg $ output_arg))

let stats_cmd =
  let run input =
    match resolve_input input with
    | exception Failure msg -> `Error (false, msg)
    | d, _ ->
    Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute d);
    let g = Netlist.Ff_graph.build d in
    Printf.printf "FF graph: %d nodes, %d with combinational self-loops\n"
      (Netlist.Ff_graph.size g) (Netlist.Ff_graph.self_loop_count g);
    `Ok ()
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print register and area statistics.")
    Term.(ret (const run $ input_arg))

let saif_arg =
  Arg.(value & opt (some string) None
       & info ["saif"] ~docv:"FILE"
           ~doc:"Also write switching activity in SAIF form.")

let power_cmd =
  let run input period saif =
    match
      let d, suite_period = resolve_input input in
      validate_input d;
      let period = resolve_period ~constraints:None period suite_period in
      (d, period, clocks_of_design d ~period)
    with
    | exception Failure msg -> `Error (false, msg)
    | d, period, clocks ->
    (* the run record's measurement, so a netlist that convert -o wrote
       prints that conversion's record power *)
    let padded, _, m =
      Qor.Collect.record_power d ~clocks
        ~seed:(Phase3.Flow.default_config ~period).Phase3.Flow.activity_seed
    in
    Format.printf "%a@." Power.Estimate.pp_breakdown
      m.Qor.Collect.detail.Power.Estimate.overall;
    refusing @@ fun () ->
    (match saif with
     | Some path ->
       write_file path
         (Sim.Saif.render padded ~toggles:m.Qor.Collect.toggles
            ~duration:m.Qor.Collect.lane_cycles);
       Printf.printf "wrote %s\n" path
     | None -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:"Hold-fix, place, simulate and estimate power, as the run \
             record measures it.")
    Term.(ret (const run $ input_arg $ period_arg $ saif_arg))

let timing_cmd =
  let run input period =
    match
      let d, suite_period = resolve_input input in
      validate_input d;
      let period = resolve_period ~constraints:None period suite_period in
      (d, clocks_of_design d ~period)
    with
    | exception Failure msg -> `Error (false, msg)
    | d, clocks ->
    let paths = Sta.Timing_report.worst_paths ~count:5 d in
    Format.printf "%a" (Sta.Timing_report.pp d) paths;
    List.iter
      (fun ((c : Sta.Corners.corner), r) ->
        Format.printf "corner %-8s %a@." c.Sta.Corners.corner_name
          Sta.Smo.pp_report r)
      (Sta.Corners.check_all d ~clocks);
    `Ok ()
  in
  Cmd.v (Cmd.info "timing" ~doc:"Report critical paths and corner timing.")
    Term.(ret (const run $ input_arg $ period_arg))

(* --- report: the self-contained HTML flow report ---------------------- *)

let load_record what path =
  match Qor.Store.load path with
  | Ok r -> Ok r
  | Error msg -> Error (Printf.sprintf "%s %s: %s" what path msg)

let report_cmd =
  let out_arg =
    Arg.(value & opt string "report.html"
         & info ["o"; "output"] ~docv:"FILE"
             ~doc:"Output HTML path (default report.html).")
  in
  let baseline_arg =
    Arg.(value & opt (some file) None
         & info ["baseline"] ~docv:"FILE"
             ~doc:"Baseline run record; switches the metric table into \
                   diff mode with the gate verdict and regression suspects \
                   at the top.")
  in
  let trend_dir_arg =
    Arg.(value & opt (some string) None
         & info ["qor-dir"] ~docv:"DIR"
             ~doc:"QoR store to read trend history from (and append this \
                   run's record to).")
  in
  let run input output baseline qor_dir period top constraints =
    match
      let d, suite_period = resolve_input ?top input in
      let constraints = Option.map read_constraints constraints in
      (d, resolve_period ~constraints period suite_period)
    with
    | exception Failure msg -> `Error (false, msg)
    | d, period ->
      let config = Phase3.Flow.default_config ~period in
      (match Phase3.Flow.run ~config d with
       | exception Phase3.Flow.Flow_error msg -> `Error (false, msg)
       | result ->
         let record =
           Qor.Collect.of_flow ~circuit:d.Netlist.Design.design_name result
         in
         let baseline =
           match baseline with
           | None -> Ok None
           | Some path -> Result.map Option.some (load_record "baseline" path)
         in
         (match baseline with
          | Error msg -> `Error (false, msg)
          | Ok baseline ->
            refusing @@ fun () ->
            (* append first so the trend section includes this run *)
            (match qor_dir with
             | Some dir ->
               ignore (guard_io "write" dir (fun () -> Qor.Store.append ~dir record))
             | None -> ());
            let history =
              match qor_dir with
              | Some dir -> Qor.Store.history ~dir
              | None -> []
            in
            write_file output (Qor.Report_html.page ?baseline ~history record);
            Printf.printf "wrote %s\n" output;
            `Ok ()))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run the conversion flow and write a self-contained HTML \
             report: stage waterfall, span tree, histograms, QoR metrics \
             (diffed against --baseline when given) and trend sparklines \
             from the --qor-dir store.  No external assets; one file.")
    Term.(ret (const run $ input_arg $ out_arg $ baseline_arg
               $ trend_dir_arg $ period_arg $ top_arg $ constraints_arg))

(* --- lint: the standalone static analyzer ----------------------------- *)

let lint_format_conv =
  Arg.enum [("text", `Text); ("json", `Json); ("sarif", `Sarif)]

let lint_format_arg =
  Arg.(value & opt lint_format_conv `Text
       & info ["format"] ~docv:"FMT"
           ~doc:"Report format: text (one finding per line), json, or \
                 sarif (SARIF 2.1.0, for code-scanning upload).")

let lint_output_arg =
  Arg.(value & opt (some string) None
       & info ["o"; "output"] ~docv:"FILE"
           ~doc:"Write the report to $(docv) instead of standard output.")

let waiver_arg =
  Arg.(value & opt (some string) None
       & info ["waiver"] ~docv:"FILE"
           ~doc:"Waiver file suppressing accepted findings; one \
                 'RULE-GLOB LOCATION-GLOB' pair per line (see \
                 docs/LINT.md).")

let show_waived_arg =
  Arg.(value & flag
       & info ["show-waived"]
           ~doc:"Include waived diagnostics in the text listing.")

let lint_cmd =
  let run input output period format waiver show_waived top constraints =
    match
      (* elaborating under [Diag.collect] gathers RTL-* findings from
         .sv inputs; the other front ends contribute none *)
      Elab.Diag.collect (fun () -> resolve_input ?top input)
    with
    | exception Failure msg -> `Error (false, msg)
    | (d, suite_period), rtl_findings ->
      match
        let constraints = Option.map read_constraints constraints in
        resolve_period ~constraints period suite_period
      with
      | exception Failure msg -> `Error (false, msg)
      | period ->
      (match clocks_of_design d ~period with
       | exception Failure msg -> `Error (false, msg)
       | clocks ->
         let waivers =
           match waiver with
           | None -> Ok []
           | Some path -> Lint_core.Waiver.load path
         in
         (match waivers with
          | Error msg -> `Error (false, msg)
          | Ok waivers ->
            let report =
              Lint.Engine.run d ~clocks ~waivers ~extra:rtl_findings
            in
            let emit ppf =
              let ds = report.Lint.Engine.diagnostics in
              match format with
              | `Text -> Lint_core.Emit.text ~show_waived ppf ds
              | `Json -> Lint_core.Emit.json ppf ds
              | `Sarif -> Lint_core.Emit.sarif ppf ds
            in
            refusing @@ fun () ->
            (match output with
             | Some path ->
               write_file path (Format.asprintf "%t" emit);
               Printf.printf "wrote %s\n" path
             | None ->
               emit Format.std_formatter;
               Format.pp_print_flush Format.std_formatter ());
            if report.Lint.Engine.errors > 0 then
              `Error
                (false,
                 Printf.sprintf "%d lint error(s) in %s"
                   report.Lint.Engine.errors
                   d.Netlist.Design.design_name)
            else `Ok ()))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static analyzer: structural netlist checks, the \
             independent phase-legality and min-delay audits, \
             clock-network and reset audits, and RTL lints for .sv \
             inputs.  Exits non-zero when any unwaived error-severity \
             finding remains.")
    Term.(ret (const run $ input_arg $ lint_output_arg $ period_arg
               $ lint_format_arg $ waiver_arg $ show_waived_arg $ top_arg
               $ constraints_arg))

(* --- qor: run-record diffing and the regression gate ----------------- *)

let noise_band_arg =
  Arg.(value & opt float 0.30
       & info ["noise-band"] ~docv:"FRAC"
           ~doc:"Relative tolerance for wall-clock/gauge metrics \
                 (default 0.30 = 30%).")

let fail_on_wall_arg =
  Arg.(value & flag
       & info ["fail-on-wall"]
           ~doc:"Also fail when a wall-clock or gauge metric regresses \
                 beyond the noise band (off by default: timings gate \
                 nothing, they only warn).")

let markdown_arg =
  Arg.(value & flag
       & info ["markdown"]
           ~doc:"Render the diff as a markdown report (changed metrics \
                 only) instead of the plain-text table.")

let store_dir_arg =
  Arg.(value & opt string "qor"
       & info ["qor-dir"] ~docv:"DIR"
           ~doc:"QoR store directory (default qor).")

(* print + verdict, shared by diff and check; exits non-zero on gate
   failure so CI can gate directly on the command *)
let finish ~fail_on_wall ~markdown diff =
  if markdown then print_string (Qor.Diff.markdown diff)
  else Report.Table.print (Qor.Diff.table diff);
  if Qor.Diff.ok ~fail_on_wall diff then begin
    (if diff.Qor.Diff.wall_regressions <> [] then
       Printf.printf "note: wall-clock outside the noise band (not gated): %s\n"
         (String.concat ", " diff.Qor.Diff.wall_regressions));
    Printf.printf "QoR gate: PASS (%s)\n" diff.Qor.Diff.circuit;
    `Ok ()
  end
  else begin
    Printf.printf "QoR gate: FAIL (%s): %s\n" diff.Qor.Diff.circuit
      (String.concat ", "
         (diff.Qor.Diff.gate_failures
          @ if fail_on_wall then diff.Qor.Diff.wall_regressions else []));
    List.iter
      (Printf.printf "  suspect: %s\n")
      (Qor.Diff.attribution_lines diff);
    exit 1
  end

let qor_diff_cmd =
  let baseline_pos =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASELINE" ~doc:"Baseline run record (JSON).")
  in
  let current_pos =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"CURRENT" ~doc:"Run record to compare (JSON).")
  in
  let run baseline current noise_band fail_on_wall markdown =
    match load_record "baseline" baseline with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      (match load_record "record" current with
       | Error msg -> `Error (false, msg)
       | Ok c ->
         finish ~fail_on_wall ~markdown
           (Qor.Diff.run ~noise_band ~baseline:b c))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two QoR run records; exit 1 when the deterministic \
             metrics differ.")
    Term.(ret (const run $ baseline_pos $ current_pos $ noise_band_arg
               $ fail_on_wall_arg $ markdown_arg))

let qor_check_cmd =
  let baseline_arg =
    Arg.(required & opt (some file) None
         & info ["baseline"] ~docv:"FILE"
             ~doc:"Baseline record to gate against (conventionally \
                   qor/baselines/<circuit>.json).")
  in
  let record_pos =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"RECORD"
             ~doc:"Run record to check; defaults to the newest store entry \
                   whose circuit matches the baseline's.")
  in
  let run baseline record dir noise_band fail_on_wall markdown =
    match load_record "baseline" baseline with
    | Error msg -> `Error (false, msg)
    | Ok b ->
      let current =
        match record with
        | Some path -> load_record "record" path
        | None ->
          (match
             Qor.Store.latest ~dir ~kind:b.Qor.Record.prov.Qor.Record.kind
               ~circuit:b.Qor.Record.prov.Qor.Record.circuit ()
           with
           | Some r -> Ok r
           | None ->
             Error
               (Printf.sprintf
                  "no run for circuit %S (kind %S) in store %s — run \
                   `ff2latch convert ... --qor-dir %s` first"
                  b.Qor.Record.prov.Qor.Record.circuit
                  b.Qor.Record.prov.Qor.Record.kind dir dir))
      in
      (match current with
       | Error msg -> `Error (false, msg)
       | Ok c ->
         finish ~fail_on_wall ~markdown
           (Qor.Diff.run ~noise_band ~baseline:b c))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Gate the newest stored run (or RECORD) against a committed \
             baseline; exit 1 on QoR regression.")
    Term.(ret (const run $ baseline_arg $ record_pos $ store_dir_arg
               $ noise_band_arg $ fail_on_wall_arg $ markdown_arg))

let limit_arg =
  Arg.(value & opt (some int) None
       & info ["limit"] ~docv:"N" ~doc:"Show at most $(docv) entries.")

let qor_list_cmd =
  let run dir limit =
    match Qor.Store.history ~dir with
    | [] -> Printf.printf "no runs recorded in %s\n" dir; `Ok ()
    | records ->
      let t =
        Report.Table.create ~title:(Printf.sprintf "QoR store %s" dir)
          [ ("timestamp", Report.Table.Left); ("kind", Report.Table.Left);
            ("circuit", Report.Table.Left); ("metrics", Report.Table.Right);
            ("power mW", Report.Table.Right) ]
      in
      (* newest first; the history file is append-order (oldest first) *)
      let records = List.rev records in
      let records =
        match limit with
        | None -> records
        | Some n -> List.filteri (fun i _ -> i < n) records
      in
      List.iter
        (fun (r : Qor.Record.t) ->
          Report.Table.add_row t
            [ r.Qor.Record.prov.Qor.Record.timestamp;
              r.Qor.Record.prov.Qor.Record.kind;
              r.Qor.Record.prov.Qor.Record.circuit;
              string_of_int (List.length r.Qor.Record.metrics);
              (match Qor.Record.metric r "power.total_mw" with
               | Some p -> Printf.sprintf "%.4f" p
               | None -> "-") ])
        records;
      Report.Table.print t;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List runs recorded in the QoR store, newest first.")
    Term.(ret (const run $ store_dir_arg $ limit_arg))

let qor_trend_cmd =
  let circuit_arg =
    Arg.(value & opt (some string) None
         & info ["circuit"] ~docv:"NAME" ~doc:"Only this circuit.")
  in
  let kind_arg =
    Arg.(value & opt (some string) None
         & info ["kind"] ~docv:"KIND" ~doc:"Only this run kind (e.g. flow).")
  in
  let metric_arg =
    Arg.(value & opt (some string) None
         & info ["metric"] ~docv:"SUBSTR"
             ~doc:"Only metrics whose name contains $(docv).")
  in
  let check_arg =
    Arg.(value & flag
         & info ["check"]
             ~doc:"Exit 1 when a deterministic metric's latest value is a \
                   robust outlier against its own history (modified \
                   z-score over median/MAD; needs at least 4 runs).  \
                   Wall-clock and gauge anomalies stay advisory.")
  in
  let all_arg =
    Arg.(value & flag
         & info ["all"]
             ~doc:"Also show series whose values never change.")
  in
  let run dir circuit kind metric limit check all =
    let series =
      Qor.Trend.of_store ~dir ?kind ?circuit ?metric ?limit ()
    in
    if series = [] then begin
      Printf.printf "no matching runs recorded in %s\n" dir;
      `Ok ()
    end
    else begin
      Report.Table.print (Qor.Trend.table ~all series);
      let anomalies = Qor.Trend.anomalies series in
      if anomalies <> [] then begin
        Printf.printf "deterministic anomalies: %s\n"
          (String.concat ", "
             (List.map
                (fun (s : Qor.Trend.series) ->
                  Printf.sprintf "%s/%s" s.Qor.Trend.sr_circuit
                    s.Qor.Trend.sr_name)
                anomalies));
        if check then exit 1
      end;
      if check && anomalies = [] then Printf.printf "trend check: PASS\n";
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "trend"
       ~doc:"Per-metric time series over the store history with robust \
             outlier detection; --check turns deterministic anomalies \
             into a non-zero exit for CI.")
    Term.(ret (const run $ store_dir_arg $ circuit_arg $ kind_arg
               $ metric_arg $ limit_arg $ check_arg $ all_arg))

let qor_cmd =
  Cmd.group
    (Cmd.info "qor"
       ~doc:"Persistent QoR run records: diff, regression gate, history, \
             trends.")
    [qor_diff_cmd; qor_check_cmd; qor_list_cmd; qor_trend_cmd]

let () =
  let doc = "flip-flop to 3-phase latch conversion flow" in
  let info = Cmd.info "ff2latch" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [convert_cmd; master_slave_cmd; stats_cmd; power_cmd; timing_cmd; report_cmd; lint_cmd; qor_cmd]))
