module T = Report.Table

let bench_exn name =
  match Circuits.Suite.find name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Ablation: unknown benchmark %s" name)

let solver () =
  let t =
    T.create ~title:"Ablation: assignment solver (inserted p2 latches)"
      [ ("design", T.Left); ("exact", T.Right); ("greedy", T.Right);
        ("gap%", T.Right); ("exact s", T.Right); ("greedy s", T.Right) ]
  in
  List.iter
    (fun name ->
      let b = bench_exn name in
      let d = b.Circuits.Suite.build () in
      let exact = Phase3.Assignment.solve ~solver:`Mis d in
      let greedy = Phase3.Assignment.solve ~solver:`Greedy d in
      let e = exact.Phase3.Assignment.inserted_latches in
      let g = greedy.Phase3.Assignment.inserted_latches in
      T.add_row t
        [ name; string_of_int e; string_of_int g;
          T.f1 (100.0 *. float_of_int (g - e) /. Float.max 1.0 (float_of_int e));
          Printf.sprintf "%.3f" exact.Phase3.Assignment.solve_time_s;
          Printf.sprintf "%.3f" greedy.Phase3.Assignment.solve_time_s ])
    ["s5378"; "s13207"; "des3"; "sha256"; "plasma"; "aes"];
  t

let flow_power b config =
  let d = b.Circuits.Suite.build () in
  let flow = Phase3.Flow.run ~config d in
  let power =
    Runner.power_of flow.Phase3.Flow.final
      ~clocks:(Phase3.Flow.clocks_of config)
      ~workload:b.Circuits.Suite.workload ~cycles:384 ~seed:9
  in
  (flow, power)

let clock_gating () =
  let t =
    T.create ~title:"Ablation: clock gating of p2 latches (s13207)"
      [ ("configuration", T.Left); ("clock mW", T.Right); ("total mW", T.Right);
        ("CG cells", T.Right); ("gated latches", T.Right) ]
  in
  let b = bench_exn "s13207" in
  (* experiment flows measure benchmarks at their published periods, where
     timing violations are table data, not sign-off failures *)
  let base =
    { (Phase3.Flow.default_config ~period:b.Circuits.Suite.period_ns) with
      Phase3.Flow.lint = false }
  in
  let off = { Phase3.Clock_gating.default_options with
              Phase3.Clock_gating.common_enable = false;
              m2_latch_removal = false; ddcg = false } in
  let variants =
    [ ("no p2 gating", off);
      ("common-enable only",
       { off with Phase3.Clock_gating.common_enable = true });
      ("common-enable + M2",
       { off with Phase3.Clock_gating.common_enable = true;
                  m2_latch_removal = true });
      ("+ multi-bit DDCG (full IV-D)", Phase3.Clock_gating.default_options) ]
  in
  List.iter
    (fun (label, cg) ->
      let config = { base with Phase3.Flow.clock_gating = cg;
                     verify_equivalence = false } in
      let flow, power = flow_power b config in
      let cg_cells, gated =
        match flow.Phase3.Flow.cg_stats with
        | Some s ->
          (s.Phase3.Clock_gating.cg_cells_added,
           s.Phase3.Clock_gating.gated_common_enable + s.Phase3.Clock_gating.ddcg_gated)
        | None -> (0, 0)
      in
      T.add_row t
        [ label;
          T.f2 power.Power.Estimate.clock;
          T.f2 (Power.Estimate.total power);
          string_of_int cg_cells;
          string_of_int gated ])
    variants;
  t

(* smallest period at which the design passes the SMO checks, by
   bisection *)
let min_period design ~lo ~hi =
  let passes period =
    let clocks =
      Sim.Clock_spec.three_phase ~period ~p1:"p1" ~p2:"p2" ~p3:"p3" ()
    in
    Sta.Smo.ok (Sta.Smo.check design ~clocks)
  in
  let rec bisect lo hi k =
    if k = 0 then hi
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if passes mid then bisect lo mid (k - 1) else bisect mid hi (k - 1)
    end
  in
  if passes hi then bisect lo hi 12 else Float.infinity

let retiming () =
  (* retiming needs inserted latches sitting in front of deep private
     logic; the 8-bit 6-stage pipeline with 6 levels of logic per stage is
     the paper's Fig. 1 scenario, and the payoff shows as a shorter
     minimum cycle time (the paper's throughput constraint C3) *)
  let t =
    T.create ~title:"Ablation: modified retiming (8-bit x6 deep pipeline)"
      [ ("configuration", T.Left); ("moves", T.Right);
        ("min period ns", T.Right); ("comb area", T.Right); ("latches", T.Right) ]
  in
  let d = Circuits.Linear_pipeline.make ~width:8 ~stages:6 ~logic_depth:6 () in
  List.iter
    (fun retime ->
      let config =
        { (Phase3.Flow.default_config ~period:0.6) with
          Phase3.Flow.retime; verify_equivalence = true; lint = false }
      in
      let flow = Phase3.Flow.run ~config d in
      let stats = Netlist.Stats.compute flow.Phase3.Flow.final in
      T.add_row t
        [ (if retime then "retiming on" else "retiming off");
          (match flow.Phase3.Flow.retime_stats with
           | Some s -> string_of_int s.Phase3.Retime.moves
           | None -> "-");
          Printf.sprintf "%.3f" (min_period flow.Phase3.Flow.final ~lo:0.05 ~hi:2.0);
          T.f1 stats.Netlist.Stats.comb_area;
          string_of_int stats.Netlist.Stats.latches ])
    [false; true];
  t

let ddcg_fanout () =
  let t =
    T.create ~title:"Ablation: DDCG max fanout (s35932; paper picks 32)"
      [ ("max fanout", T.Right); ("clock mW", T.Right); ("total mW", T.Right);
        ("CG cells", T.Right); ("ddcg latches", T.Right) ]
  in
  let b = bench_exn "s35932" in
  List.iter
    (fun max_fanout ->
      let cg = { Phase3.Clock_gating.default_options with
                 Phase3.Clock_gating.max_fanout } in
      let config =
        { (Phase3.Flow.default_config ~period:b.Circuits.Suite.period_ns) with
          Phase3.Flow.clock_gating = cg; verify_equivalence = false;
          lint = false }
      in
      let flow, power = flow_power b config in
      let cg_cells, ddcg =
        match flow.Phase3.Flow.cg_stats with
        | Some s -> (s.Phase3.Clock_gating.cg_cells_added, s.Phase3.Clock_gating.ddcg_gated)
        | None -> (0, 0)
      in
      T.add_row t
        [ string_of_int max_fanout;
          T.f2 power.Power.Estimate.clock;
          T.f2 (Power.Estimate.total power);
          string_of_int cg_cells;
          string_of_int ddcg ])
    [4; 8; 16; 32; 64];
  t

let skew_tolerance () =
  let t =
    T.create ~title:"Ablation: hold-buffer demand vs clock skew (plasma)"
      [ ("skew ns", T.Right); ("FF buffers", T.Right); ("M-S buffers", T.Right);
        ("3-P buffers", T.Right) ]
  in
  let b = bench_exn "plasma" in
  let period = b.Circuits.Suite.period_ns in
  let d = b.Circuits.Suite.build () in
  let ff_clocks = Phase3.Flow.reference_clocks d ~period in
  let ms = Phase3.Master_slave.convert d in
  let config = { (Phase3.Flow.default_config ~period) with
                 Phase3.Flow.verify_equivalence = false; lint = false } in
  let flow = Phase3.Flow.run ~config d in
  let threep_clocks = Phase3.Flow.clocks_of config in
  List.iter
    (fun skew ->
      let buffers design clocks =
        let _, stats = Sta.Hold_fix.run ~skew design ~clocks in
        stats.Sta.Hold_fix.buffers_added
      in
      T.add_row t
        [ Printf.sprintf "%.2f" skew;
          string_of_int (buffers d ff_clocks);
          string_of_int (buffers ms ff_clocks);
          string_of_int (buffers flow.Phase3.Flow.final threep_clocks) ])
    [0.02; 0.05; 0.08; 0.12];
  t

let pvt () =
  let t =
    T.create
      ~title:"Ablation: PVT corners (s13207) — setup slack ns / hold buffers"
      [ ("corner", T.Left); ("FF", T.Right); ("M-S", T.Right); ("3-P", T.Right) ]
  in
  let b = bench_exn "s13207" in
  let period = b.Circuits.Suite.period_ns in
  let d = b.Circuits.Suite.build () in
  let ff_clocks = Phase3.Flow.reference_clocks d ~period in
  let ms = Phase3.Master_slave.convert d in
  let config = { (Phase3.Flow.default_config ~period) with
                 Phase3.Flow.verify_equivalence = false; lint = false } in
  let flow = Phase3.Flow.run ~config d in
  let styles =
    [ (d, ff_clocks); (ms, ff_clocks);
      (flow.Phase3.Flow.final, Phase3.Flow.clocks_of config) ]
  in
  List.iter
    (fun (c : Sta.Corners.corner) ->
      let cells =
        List.map
          (fun (design, clocks) ->
            let r =
              Sta.Smo.check ~clock_skew:c.Sta.Corners.skew
                ~derate:(c.Sta.Corners.derate_early, c.Sta.Corners.derate_late)
                design ~clocks
            in
            let _, hold =
              Sta.Hold_fix.run ~skew:c.Sta.Corners.skew design ~clocks
            in
            Printf.sprintf "%.3f / %d" r.Sta.Smo.worst_setup_slack
              hold.Sta.Hold_fix.buffers_added)
          styles
      in
      T.add_row t (c.Sta.Corners.corner_name :: cells))
    Sta.Corners.default_corners;
  t
