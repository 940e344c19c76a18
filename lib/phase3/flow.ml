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

(* the cycles of the draw that the clock-gating stage's profile reads:
   only DDCG reads activity *)
let profile_cycles config =
  if config.clock_gating.Clock_gating.ddcg then config.activity_cycles + 1 else 0

let draw config d =
  Sim.Stimulus.draw
    ~seeds:(Array.init Sim.Kernel.max_lanes (fun l -> config.activity_seed + l))
    ~cycles:
      (max (profile_cycles config)
         (if config.verify_equivalence then config.verify_cycles else 0))
    (Sim.Stimulus.Uniform 0.25) (Sim.Stimulus.inputs_of d)

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
      (match Netlist.Check.validate d with
       | Ok () -> ()
       | Error errors ->
         fail "input design %s is invalid: %s" d.Netlist.Design.design_name
           (String.concat "; " errors));
      (* conversion maps one clock onto p1/p2/p3 and drops the clock
         network, and the equivalence and clock-gating stages simulate
         the input design under that one clock *)
      (match d.Netlist.Design.clock_ports with
       | [] | [_] -> ()
       | _ :: _ :: _ as ports ->
         fail "validate stage: design %s has %d clock ports (%s); the flow \
               converts a single clock" d.Netlist.Design.design_name
           (List.length ports) (String.concat ", " ports));
      Option.iter (fail "validate stage: %s") (Convert.clock_read d));
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
  let reference_clocks = reference_clocks d ~period:config.period in
  (* one draw feeds both simulations of [d]: the profile reads its first
     activity_cycles + 1 cycles, the equivalence check its first
     verify_cycles; a draw's first N cycles are an N-cycle draw *)
  let draw = draw config d in
  (* the reference's output samples, when the profile's run took them *)
  let reference_outputs = ref None in
  let final, cg_stats =
    if cg_on then
      stage "clock_gating" (fun () ->
          let plan =
            Clock_gating.plan ~options:config.clock_gating ~ports:config.ports
              retimed
          in
          (* profile activity on the input design: the bit-parallel
             kernel runs one independently seeded stimulus stream per lane,
             so the DDCG decisions see Monte-Carlo toggle statistics rather
             than a single random trace.  DDCG reads only its pool's data
             nets, each of which toggles as its partner in [d] does one
             clock edge later (Clock_gating.partners): one run of [d], one
             cycle longer than the profile, simulates only the partners'
             fan-in, and nothing runs when the pool is empty.  When the
             check is no longer than that run, the run also samples [d]'s
             outputs for the equivalence stage: a kernel's values on a
             net do not depend on the other nets it observes *)
          let activity =
            Clock_gating.reference_activity plan d
              ~lane_cycles:(Sim.Kernel.max_lanes * config.activity_cycles)
              ~simulate:(fun partners ->
                Obs.span "flow.clock_gating.activity" (fun () ->
                    let cycles = profile_cycles config in
                    let shared =
                      config.verify_equivalence && config.verify_cycles <= cycles
                    in
                    let ports, outputs =
                      if shared then Sim.Equivalence.outputs d else ([||], [||])
                    in
                    let kernel =
                      Sim.Kernel.create
                        ~observe:(Array.append partners outputs) d
                        ~clocks:reference_clocks
                    in
                    let planes =
                      Sim.Kernel.run_sampled kernel
                        (Sim.Stimulus.prefix draw ~cycles) outputs
                    in
                    if shared then
                      reference_outputs :=
                        Some (Sim.Equivalence.samples ~ports ~cycles planes);
                    Sim.Kernel.toggles kernel))
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
          let stimulus = Sim.Stimulus.prefix draw ~cycles:config.verify_cycles in
          let reference =
            match !reference_outputs with
            | Some samples -> samples
            | None -> Sim.Equivalence.sample d ~clocks:reference_clocks stimulus
          in
          let verdict =
            Sim.Equivalence.verdict ~reference
              ~dut:
                (Sim.Equivalence.sample ~ports:reference.Sim.Equivalence.ports
                   final ~clocks stimulus)
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
