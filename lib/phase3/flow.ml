type config = {
  solver : Assignment.solver;
  node_budget : int;
  retime : bool;
  optimize : bool;
  clock_gating : Clock_gating.options;
  ports : Convert.clock_ports;
  period : float;
  activity_cycles : int;
  activity_seed : int;
  verify_equivalence : bool;
  verify_cycles : int;
  lint : bool;
}

let default_config ~period = {
  solver = `Auto;
  node_budget = 2_000_000;
  retime = true;
  optimize = false;
  clock_gating = Clock_gating.default_options;
  ports = Convert.default_ports;
  period;
  activity_cycles = 512;
  activity_seed = 1;
  verify_equivalence = true;
  verify_cycles = 256;
  lint = true;
}

type result = {
  config : config;
  original : Netlist.Design.t;
  assignment : Assignment.t;
  converted : Netlist.Design.t;
  retimed : Netlist.Design.t;
  final : Netlist.Design.t;
  retime_stats : Retime.stats option;
  cg_stats : Clock_gating.stats option;
  timing : Sta.Smo.report;
  lint : Lint.Engine.report option;
  equivalence : Sim.Equivalence.verdict option;
  stage_times : (string * float) list;
}

let stage_names =
  [ "validate"; "assign"; "convert"; "retime"; "clock_gating"; "smo"; "lint";
    "equivalence" ]

exception Flow_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Flow_error s)) fmt

let clocks_of config =
  Sim.Clock_spec.three_phase ~period:config.period
    ~p1:config.ports.Convert.p1
    ~p2:config.ports.Convert.p2
    ~p3:config.ports.Convert.p3 ()

let reference_clocks d ~period =
  match d.Netlist.Design.clock_ports with
  | [port] -> Sim.Clock_spec.single ~period ~port
  | [] -> Sim.Clock_spec.single ~period ~port:"clock"
  | _ :: _ :: _ ->
    fail "design %s has several clock ports" d.Netlist.Design.design_name

let equivalence_stimulus config d =
  Sim.Stimulus.draw
    ~seeds:
      (Array.init Sim.Kernel.max_lanes (fun l -> config.activity_seed + 17 + l))
    ~cycles:config.verify_cycles (Sim.Stimulus.Uniform 0.35)
    (Sim.Stimulus.inputs_of d)

let run ~config d =
  if not (Float.is_finite config.period && config.period > 0.0) then
    fail "clock period %g ns must be positive and finite" config.period;
  (* an equivalence check over too short a stream compares no cycle *)
  if config.verify_equivalence
     && config.verify_cycles < Sim.Equivalence.min_cycles () then
    fail "equivalence stage: verify_cycles = %d, the check needs at least %d"
      config.verify_cycles (Sim.Equivalence.min_cycles ());
  let cg_on =
    config.clock_gating.Clock_gating.common_enable
    || config.clock_gating.Clock_gating.ddcg
    || config.clock_gating.Clock_gating.m2_latch_removal
  in
  (* gating decisions read the activity of at least one simulated cycle *)
  if cg_on && config.activity_cycles < 1 then
    fail "clock_gating stage: activity_cycles = %d, the profile needs at \
          least 1" config.activity_cycles;
  let times = ref [] in
  (* every enabled stage records exactly one "flow.<stage>" Obs span,
     allocation-pressure gauges at its boundary (Obs.gc_span), and one
     entry of [stage_times], in execution order; all of the flow's work
     runs inside a stage *)
  let stage name f =
    let t0 = Unix.gettimeofday () in
    let r = Obs.gc_span ("flow." ^ name) f in
    times := (name, Unix.gettimeofday () -. t0) :: !times;
    r
  in
  stage "validate" (fun () ->
      match Netlist.Check.validate d with
      | Ok () -> ()
      | Error errors ->
        fail "input design %s is invalid: %s" d.Netlist.Design.design_name
          (String.concat "; " errors));
  let assignment =
    stage "assign" (fun () ->
        let assignment = Assignment.solve ~solver:config.solver
            ~node_budget:config.node_budget d in
        (match Assignment.validate d assignment with
         | [] -> ()
         | issues -> fail "assignment invalid: %s" (String.concat "; " issues));
        assignment)
  in
  let converted =
    stage "convert" (fun () ->
        let converted = Convert.to_three_phase ~ports:config.ports d assignment in
        (match Netlist.Check.validate converted with
         | Ok () -> ()
         | Error errors ->
           fail "converted design invalid: %s" (String.concat "; " errors));
        converted)
  in
  let retimed, retime_stats =
    if config.retime then
      stage "retime" (fun () ->
          let d', s = Retime.run converted in
          (d', Some s))
    else (converted, None)
  in
  let clocks = clocks_of config in
  let final, cg_stats =
    if cg_on then
      stage "clock_gating" (fun () ->
          let plan =
            Clock_gating.plan ~options:config.clock_gating ~ports:config.ports
              retimed
          in
          (* profile activity on the pre-gating design: the bit-parallel
             kernel runs one independently seeded stimulus stream per lane,
             so the DDCG decisions see Monte-Carlo toggle statistics rather
             than a single random trace.  DDCG reads only its pool's data
             nets, so the kernel simulates their fan-in, and nothing when
             the pool is empty *)
          let observe = Clock_gating.observed plan in
          let activity =
            if Array.length observe = 0 then ([||], 0)
            else
              Obs.span "flow.clock_gating.activity" (fun () ->
                  let kernel = Sim.Kernel.create ~observe retimed ~clocks in
                  let stimulus =
                    Sim.Stimulus.draw
                      ~seeds:
                        (Array.init (Sim.Kernel.lanes kernel) (fun l ->
                             config.activity_seed + l))
                      ~cycles:config.activity_cycles (Sim.Stimulus.Uniform 0.25)
                      (Sim.Stimulus.inputs_of retimed)
                  in
                  Sim.Kernel.run kernel stimulus;
                  (Sim.Kernel.toggles kernel, Sim.Kernel.lane_cycles kernel))
          in
          let d', s = Clock_gating.apply plan ~activity in
          (d', Some s))
    else (retimed, None)
  in
  let final =
    if config.optimize then
      stage "optimize" (fun () -> fst (Netlist.Optimize.run final))
    else final
  in
  let structural, analysis =
    stage "smo" (fun () ->
        (* timing reads the final design: check its structure first; the
           lint stage reads the same findings *)
        let structural = Netlist.Check.diagnostics final in
        (match Netlist.Check.errors structural with
         | [] -> ()
         | errors ->
           fail "final design invalid: %s" (String.concat "; " errors));
        (structural, Sta.Smo.analyse final ~clocks))
  in
  let lint_report =
    if config.lint then
      stage "lint" (fun () ->
          (* the independent auditor: reads the analysis above and the
             netlist, never the assignment *)
          let report = Lint.Engine.audit ~structural analysis in
          if not (Lint.Engine.ok report) then begin
            let firsts =
              List.filteri
                (fun i _ -> i < 3)
                (List.filter Lint_core.Diagnostic.is_error
                   report.Lint.Engine.diagnostics)
            in
            fail "converted design fails lint with %d error(s): %s"
              report.Lint.Engine.errors
              (String.concat "; "
                 (List.map Lint_core.Diagnostic.to_string firsts))
          end;
          Some report)
    else None
  in
  let equivalence =
    if config.verify_equivalence then
      stage "equivalence" (fun () ->
          let verdict =
            Sim.Equivalence.check_packed ~reference:d ~dut:final
              ~reference_clocks:(reference_clocks d ~period:config.period)
              ~dut_clocks:clocks ~stimulus:(equivalence_stimulus config d) ()
          in
          (match verdict with
           | Sim.Equivalence.Equivalent _ -> ()
           | Sim.Equivalence.Mismatch m ->
             fail "3-phase design is not stream-equivalent: %a"
               Sim.Equivalence.pp_mismatch m);
          Some verdict)
    else None
  in
  { config; original = d; assignment; converted; retimed; final;
    retime_stats; cg_stats; timing = analysis.Sta.Smo.report;
    lint = lint_report; equivalence; stage_times = List.rev !times }
