module T = Report.Table

let pct_vs ref_ v = T.pct ~ref_ v

(* --- Table I ------------------------------------------------------- *)

let table1 (results : Runner.t list) =
  let regs =
    T.create ~title:"Table I(a): number of registers (FFs or latches)"
      [ ("design", T.Left); ("FF", T.Right); ("M-S", T.Right); ("3-P", T.Right);
        ("sv/2FF%", T.Right); ("paper", T.Right);
        ("sv/MS%", T.Right); ("paper", T.Right) ]
  in
  let area =
    T.create ~title:"Table I(b): total area (um^2)"
      [ ("design", T.Left); ("FF", T.Right); ("M-S", T.Right); ("3-P", T.Right);
        ("sv/FF%", T.Right); ("paper", T.Right);
        ("sv/MS%", T.Right); ("paper", T.Right) ]
  in
  let sum_save2ff = ref 0.0 and sum_savems = ref 0.0 in
  let sum_area_ff = ref 0.0 and sum_area_ms = ref 0.0 in
  let n = List.length results in
  List.iter
    (fun (r : Runner.t) ->
      let b = r.Runner.bench in
      let pub = b.Circuits.Suite.published in
      let pff, pms, p3p = pub.Circuits.Suite.pub_regs in
      let aff, ams, a3p = pub.Circuits.Suite.pub_area in
      let save2ff =
        100.0 *. (float_of_int (2 * r.Runner.ff.Runner.regs - r.Runner.threep.Runner.regs))
        /. float_of_int (2 * r.Runner.ff.Runner.regs)
      in
      let savems =
        100.0 *. (float_of_int (r.Runner.ms.Runner.regs - r.Runner.threep.Runner.regs))
        /. float_of_int r.Runner.ms.Runner.regs
      in
      sum_save2ff := !sum_save2ff +. save2ff;
      sum_savems := !sum_savems +. savems;
      let pub_save2ff = 100.0 *. float_of_int (2 * pff - p3p) /. float_of_int (2 * pff) in
      let pub_savems = 100.0 *. float_of_int (pms - p3p) /. float_of_int pms in
      T.add_row regs
        [ b.Circuits.Suite.bench_name;
          string_of_int r.Runner.ff.Runner.regs;
          string_of_int r.Runner.ms.Runner.regs;
          string_of_int r.Runner.threep.Runner.regs;
          T.f1 save2ff; T.f1 pub_save2ff;
          T.f1 savems; T.f1 pub_savems ];
      let a_ff = r.Runner.ff.Runner.cell_area in
      let a_ms = r.Runner.ms.Runner.cell_area in
      let a_3p = r.Runner.threep.Runner.cell_area in
      sum_area_ff := !sum_area_ff +. (100.0 *. (a_ff -. a_3p) /. a_ff);
      sum_area_ms := !sum_area_ms +. (100.0 *. (a_ms -. a_3p) /. a_ms);
      T.add_row area
        [ b.Circuits.Suite.bench_name;
          T.f1 a_ff; T.f1 a_ms; T.f1 a_3p;
          pct_vs a_ff a_3p; pct_vs aff a3p;
          pct_vs a_ms a_3p; pct_vs ams a3p ])
    results;
  if n > 0 then begin
    let fn = float_of_int n in
    T.add_rule regs;
    T.add_row regs
      [ "average"; ""; ""; "";
        T.f1 (!sum_save2ff /. fn); "22.4"; T.f1 (!sum_savems /. fn); "21.3" ];
    T.add_rule area;
    T.add_row area
      [ "average"; ""; ""; "";
        T.f1 (!sum_area_ff /. fn); "11.0"; T.f1 (!sum_area_ms /. fn); "0.8" ]
  end;
  [regs; area]

(* --- Table II ------------------------------------------------------ *)

let table2 (results : Runner.t list) =
  let power =
    T.create ~title:"Table II: power dissipation (mW) by group"
      [ ("design", T.Left);
        ("FF clk", T.Right); ("seq", T.Right); ("comb", T.Right); ("tot", T.Right);
        ("MS tot", T.Right);
        ("3P clk", T.Right); ("seq", T.Right); ("comb", T.Right); ("tot", T.Right);
        ("sv/FF%", T.Right); ("paper", T.Right);
        ("sv/MS%", T.Right); ("paper", T.Right) ]
  in
  let sum_ff = ref 0.0 and sum_ms = ref 0.0 in
  let n = List.length results in
  List.iter
    (fun (r : Runner.t) ->
      let b = r.Runner.bench in
      let pub = b.Circuits.Suite.published in
      let pt_ff, pt_ms, pt_3p = pub.Circuits.Suite.pub_power_total in
      let p v = v.Runner.power in
      let tot v = Power.Estimate.total (p v) in
      let save_ff = 100.0 *. (tot r.Runner.ff -. tot r.Runner.threep) /. tot r.Runner.ff in
      let save_ms = 100.0 *. (tot r.Runner.ms -. tot r.Runner.threep) /. tot r.Runner.ms in
      sum_ff := !sum_ff +. save_ff;
      sum_ms := !sum_ms +. save_ms;
      T.add_row power
        [ b.Circuits.Suite.bench_name;
          T.f2 (p r.Runner.ff).Power.Estimate.clock;
          T.f2 (p r.Runner.ff).Power.Estimate.seq;
          T.f2 (p r.Runner.ff).Power.Estimate.comb;
          T.f2 (tot r.Runner.ff);
          T.f2 (tot r.Runner.ms);
          T.f2 (p r.Runner.threep).Power.Estimate.clock;
          T.f2 (p r.Runner.threep).Power.Estimate.seq;
          T.f2 (p r.Runner.threep).Power.Estimate.comb;
          T.f2 (tot r.Runner.threep);
          T.f1 save_ff; T.f1 (100.0 *. (pt_ff -. pt_3p) /. pt_ff);
          T.f1 save_ms; T.f1 (100.0 *. (pt_ms -. pt_3p) /. pt_ms) ])
    results;
  if n > 0 then begin
    let fn = float_of_int n in
    T.add_rule power;
    T.add_row power
      [ "average"; ""; ""; ""; ""; ""; ""; ""; ""; "";
        T.f1 (!sum_ff /. fn); "15.5"; T.f1 (!sum_ms /. fn); "18.5" ]
  end;
  [power]

(* --- Fig. 1 -------------------------------------------------------- *)

let fig1 ?(widths = [8]) ?(stages = [2; 3; 4; 6; 8; 12; 16]) () =
  let t =
    T.create ~title:"Fig. 1: linear pipelines (one inserted latch per two stages)"
      [ ("pipeline", T.Left); ("FFs", T.Right); ("3P latches", T.Right);
        ("closed form", T.Right); ("M-S latches", T.Right); ("ok", T.Right) ]
  in
  List.iter
    (fun width ->
      List.iter
        (fun n_stages ->
          let d = Circuits.Linear_pipeline.make ~width ~stages:n_stages () in
          let asg = Phase3.Assignment.solve d in
          let threep = Phase3.Assignment.total_latches asg in
          let expected = Phase3.Pipeline.expected_latches ~stages:n_stages ~width in
          let ffs = width * n_stages in
          T.add_row t
            [ Printf.sprintf "w%d x s%d" width n_stages;
              string_of_int ffs;
              string_of_int threep;
              string_of_int expected;
              string_of_int (2 * ffs);
              (if threep = expected then "yes" else "NO") ])
        stages)
    widths;
  t

(* --- Fig. 2 -------------------------------------------------------- *)

(* A conditionally-loaded 24-bit register bank built in the two styles of
   Fig. 2: (a) enabled clock — a recirculating mux in front of every
   flip-flop; (b) gated clock — one ICG for the bank.  Style (a) gives
   every flip-flop a combinational self-loop, which blocks single-latch
   conversion; style (b) leaves the flip-flops free. *)
let fig2_design ~gated =
  let lib = Cell_lib.Default_library.library () in
  let b = Netlist.Builder.create
      ~name:(if gated then "fig2_gated" else "fig2_enabled") ~library:lib in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let en = Netlist.Builder.add_input b "en" in
  let width = 24 in
  (* each input feeds several register bits, so latching an input port is
     cheaper than pairing the registers it feeds *)
  let inputs =
    List.init (width / 4) (fun k -> Netlist.Builder.add_input b (Printf.sprintf "d%d" k))
  in
  let data = List.init width (fun k -> List.nth inputs (k mod (width / 4))) in
  let gck =
    if gated then begin
      let g = Netlist.Builder.fresh_net b "gck" in
      ignore (Netlist.Builder.add_cell b "icg" "ICG_X1"
                [("CK", clk); ("EN", en); ("GCK", g)]);
      g
    end
    else clk
  in
  let qs =
    List.mapi
      (fun k din ->
        let q = Netlist.Builder.fresh_net b (Printf.sprintf "q%d" k) in
        let d_final =
          if gated then din
          else Netlist.Gates.mux2 b ~sel:en ~a:q ~b_in:din ~prefix:(Printf.sprintf "m%d" k)
        in
        ignore (Netlist.Builder.add_cell b (Printf.sprintf "r%d" k) "DFF_X1"
                  [("CK", gck); ("D", d_final); ("Q", q)]);
        q)
      data
  in
  (* consumer ranks so the bank has fanout; two ranks downstream make the
     cost of the forced pairs visible in the latch count *)
  let qarr = Array.of_list qs in
  let qs2 =
    List.mapi
      (fun k _ ->
        let x = Netlist.Gates.emit_fresh b Netlist.Gates.Xor
            [qarr.(k); qarr.((k + 1) mod width)] ~prefix:(Printf.sprintf "s%d" k) in
        let q2 = Netlist.Builder.fresh_net b (Printf.sprintf "p%d" k) in
        ignore (Netlist.Builder.add_cell b (Printf.sprintf "r2_%d" k) "DFF_X1"
                  [("CK", clk); ("D", x); ("Q", q2)]);
        q2)
      data
  in
  (* a second consumer rank: with the enabled-clock style the bank is
     pinned to pairs, so the alternating-rank optimum is unreachable *)
  let qarr2 = Array.of_list qs2 in
  List.iteri
    (fun k _ ->
      let x = Netlist.Gates.emit_fresh b Netlist.Gates.Xnor
          [qarr2.(k); qarr2.((k + 2) mod width)] ~prefix:(Printf.sprintf "t%d" k) in
      let q3 = Netlist.Builder.fresh_net b (Printf.sprintf "u%d" k) in
      ignore (Netlist.Builder.add_cell b (Printf.sprintf "r3_%d" k) "DFF_X1"
                [("CK", clk); ("D", x); ("Q", q3)]);
      Netlist.Builder.add_output b (Printf.sprintf "y%d" k) q3)
    qs2;
  Netlist.Builder.freeze b

let fig2 () =
  let t =
    T.create ~title:"Fig. 2: enabled-clock vs gated-clock style (24-bit bank)"
      [ ("style", T.Left); ("FFs", T.Right); ("self-loops", T.Right);
        ("3P latches", T.Right); ("inserted", T.Right); ("power mW", T.Right) ]
  in
  List.iter
    (fun gated ->
      let d = fig2_design ~gated in
      let asg = Phase3.Assignment.solve d in
      let g = asg.Phase3.Assignment.graph in
      let config =
        { (Phase3.Flow.default_config ~period:2.0) with
          Phase3.Flow.lint = false }
      in
      let flow = Phase3.Flow.run ~config d in
      let power =
        Runner.power_of flow.Phase3.Flow.final
          ~clocks:(Phase3.Flow.clocks_of config)
          ~workload:(Circuits.Workload.Uniform_random 0.3) ~cycles:256 ~seed:5
      in
      T.add_row t
        [ (if gated then "gated clock (Fig 2b)" else "enabled clock (Fig 2a)");
          string_of_int (Netlist.Ff_graph.size g);
          string_of_int (Netlist.Ff_graph.self_loop_count g);
          string_of_int (Phase3.Assignment.total_latches asg);
          string_of_int asg.Phase3.Assignment.inserted_latches;
          T.f2 (Power.Estimate.total power) ])
    [false; true];
  t

(* --- Fig. 3 -------------------------------------------------------- *)

let fig3 () =
  (* The gated design of Fig. 3(a): a bank of p3 latches gated by EN, an
     inserted p2 latch gated by a p2 CG (M1 style) with the same EN.  The
     trace shows GCK2 (the gated p2) pulsing exactly on the cycles whose
     enable was captured, with no glitches. *)
  let lib = Cell_lib.Default_library.library () in
  let b = Netlist.Builder.create ~name:"fig3" ~library:lib in
  let p1 = Netlist.Builder.add_input ~clock:true b "p1" in
  let p2 = Netlist.Builder.add_input ~clock:true b "p2" in
  let p3 = Netlist.Builder.add_input ~clock:true b "p3" in
  ignore p1;
  let en = Netlist.Builder.add_input b "en" in
  let din = Netlist.Builder.add_input b "din" in
  let gck3 = Netlist.Builder.fresh_net b "gck3" in
  ignore (Netlist.Builder.add_cell b "cg3" "ICG_X1" [("CK", p3); ("EN", en); ("GCK", gck3)]);
  let mid = Netlist.Builder.fresh_net b "mid" in
  ignore (Netlist.Builder.add_cell b "lat3" "LATH_X1" [("E", gck3); ("D", din); ("Q", mid)]);
  let gck2 = Netlist.Builder.fresh_net b "gck2" in
  ignore (Netlist.Builder.add_cell b "cg2" "ICGP3_X1"
            [("CK", p2); ("P3", p3); ("EN", en); ("GCK", gck2)]);
  let q = Netlist.Builder.fresh_net b "q" in
  ignore (Netlist.Builder.add_cell b "lat2" "LATH_X1" [("E", gck2); ("D", mid); ("Q", q)]);
  Netlist.Builder.add_output b "q" q;
  let d = Netlist.Builder.freeze b in
  let clocks = Sim.Clock_spec.three_phase ~period:1.0 ~p1:"p1" ~p2:"p2" ~p3:"p3" () in
  let kernel = Sim.Kernel.create d ~clocks in
  let t =
    T.create ~title:"Fig. 3: p2 clock gate (M1) trace — GCK2 pulses follow EN"
      [ ("cycle", T.Right); ("en", T.Right); ("din", T.Right);
        ("gck3 tgl", T.Right); ("gck2 tgl", T.Right); ("q", T.Right) ]
  in
  let prev3 = ref 0 and prev2 = ref 0 in
  List.iteri
    (fun cycle (env, dinv) ->
      Sim.Kernel.run_cycle_broadcast kernel
        [("en", Sim.Logic.of_bool env); ("din", Sim.Logic.of_bool dinv)];
      let toggles = Sim.Kernel.toggles_lane0 kernel in
      let t3 = toggles.(gck3) - !prev3 and t2 = toggles.(gck2) - !prev2 in
      prev3 := toggles.(gck3);
      prev2 := toggles.(gck2);
      let q_out = List.assoc "q" (Sim.Kernel.output_sample kernel ~lane:0) in
      T.add_row t
        [ string_of_int cycle;
          (if env then "1" else "0");
          (if dinv then "1" else "0");
          string_of_int t3;
          string_of_int t2;
          String.make 1 (Sim.Logic.to_char q_out) ])
    [ (true, true); (true, false); (false, true); (false, false);
      (true, true); (false, false); (true, false) ];
  t

(* --- Fig. 4 -------------------------------------------------------- *)

let fig4 () =
  let t =
    T.create ~title:"Fig. 4: CPU power (mW) on Dhrystone and Coremark"
      [ ("cpu/workload", T.Left); ("style", T.Left);
        ("clock", T.Right); ("seq", T.Right); ("comb", T.Right); ("total", T.Right);
        ("save%", T.Right) ]
  in
  List.iter
    (fun cpu_spec ->
      let original = Circuits.Cpu.make cpu_spec in
      let period = 1000.0 /. cpu_spec.Circuits.Cpu.frequency_mhz in
      let ff_clocks = Phase3.Flow.reference_clocks original ~period in
      let ms = Phase3.Master_slave.convert original in
      let config =
        { (Phase3.Flow.default_config ~period) with
          Phase3.Flow.verify_equivalence = false; lint = false }
      in
      let flow = Phase3.Flow.run ~config original in
      let threep_clocks = Phase3.Flow.clocks_of config in
      List.iter
        (fun program ->
          let workload = Circuits.Workload.Program program in
          let pf =
            Runner.power_of original ~clocks:ff_clocks ~workload ~cycles:384
              ~seed:7
          in
          let pm =
            Runner.power_of ms ~clocks:ff_clocks ~workload ~cycles:384 ~seed:7
          in
          let p3 =
            Runner.power_of flow.Phase3.Flow.final ~clocks:threep_clocks ~workload
              ~cycles:384 ~seed:7
          in
          let label =
            Printf.sprintf "%s/%s" cpu_spec.Circuits.Cpu.name
              (Circuits.Workload.name workload)
          in
          let row style (p : Power.Estimate.breakdown) save =
            T.add_row t
              [ label; style;
                T.f2 p.Power.Estimate.clock; T.f2 p.Power.Estimate.seq;
                T.f2 p.Power.Estimate.comb; T.f2 (Power.Estimate.total p);
                save ]
          in
          row "FF" pf "";
          row "M-S" pm "";
          row "3-P" p3
            (Printf.sprintf "%s/%s"
               (T.pct ~ref_:(Power.Estimate.total pf) (Power.Estimate.total p3))
               (T.pct ~ref_:(Power.Estimate.total pm) (Power.Estimate.total p3)));
          T.add_rule t)
        [Circuits.Workload.Dhrystone; Circuits.Workload.Coremark])
    [Circuits.Cpu.riscv; Circuits.Cpu.arm_m0];
  t

(* --- run-time ------------------------------------------------------ *)

let runtime (results : Runner.t list) =
  let t =
    T.create ~title:"Run-time: ILP share of the 3-phase flow (Section V)"
      [ ("design", T.Left); ("ILP s", T.Right); ("3P flow s", T.Right);
        ("ILP %", T.Right); ("comps", T.Right); ("nodes", T.Right);
        ("LP solves", T.Right); ("props", T.Right);
        ("whole bench s", T.Right) ]
  in
  List.iter
    (fun (r : Runner.t) ->
      T.add_row t
        [ r.Runner.bench.Circuits.Suite.bench_name;
          Printf.sprintf "%.3f" r.Runner.ilp_time_s;
          Printf.sprintf "%.2f" r.Runner.threep.Runner.runtime_s;
          T.f1 (100.0 *. r.Runner.ilp_time_s /. Float.max 1e-9 r.Runner.threep.Runner.runtime_s);
          "-"; "-"; "-"; "-";
          Printf.sprintf "%.2f" r.Runner.total_time_s ])
    results;
  (* Solver search statistics come from the process-global Obs counters
     (ilp.* on the exact path, mis.* above the size threshold).  Runner
     variants build on parallel domains, so per-design deltas cannot be
     read race-free mid-suite; the footer reports the suite-wide totals
     — per-design attribution lives in the QoR run records
     (ff2latch convert --qor-dir). *)
  T.add_rule t;
  let c = Obs.counter_of in
  T.add_row t
    [ "all designs (Obs)"; "-"; "-"; "-";
      string_of_int (c "ilp.components" + c "mis.components");
      string_of_int (c "ilp.nodes" + c "mis.nodes");
      string_of_int (c "ilp.lp_solves");
      string_of_int (c "ilp.propagations");
      "-" ];
  t

let runtime_stages (results : Runner.t list) =
  let stages = Phase3.Flow.stage_names in
  let t =
    T.create ~title:"Run-time: per-stage breakdown of the 3-phase flow (s)"
      (("design", T.Left)
       :: List.map (fun s -> (s, T.Right)) stages
       @ [ ("flow total", T.Right);
           (* kernel effectiveness on the 3-phase variant's activity run *)
           ("fused ops", T.Right); ("waves skip", T.Right);
           ("cones skip", T.Right) ])
  in
  List.iter
    (fun (r : Runner.t) ->
      let times = r.Runner.flow.Phase3.Flow.stage_times in
      let cell s =
        match List.assoc_opt s times with
        | Some v -> Printf.sprintf "%.3f" v
        | None -> "-"
      in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 times in
      let k = r.Runner.threep.Runner.kernel in
      T.add_row t
        (r.Runner.bench.Circuits.Suite.bench_name
         :: List.map cell stages
         @ [ Printf.sprintf "%.3f" total;
             string_of_int k.Sim.Kernel.fused_ops;
             string_of_int k.Sim.Kernel.stat_waves_skipped;
             string_of_int k.Sim.Kernel.stat_cones_skipped ]))
    results;
  t

(* --- register-style baseline comparison ---------------------------- *)

(* the power of a design its caller has already hold-fixed, measured
   without a second hold fix *)
let power_of_padded padded ~clocks ~stimulus =
  (Qor.Collect.measure padded ~clocks ~stimulus)
    .Qor.Collect.detail.Power.Estimate.overall

let baselines () =
  let b = Option.get (Circuits.Suite.find "plasma") in
  let period = b.Circuits.Suite.period_ns in
  let d = b.Circuits.Suite.build () in
  let ff_clocks = Phase3.Flow.reference_clocks d ~period in
  let config = { (Phase3.Flow.default_config ~period) with
                 Phase3.Flow.verify_equivalence = false; lint = false } in
  let flow = Phase3.Flow.run ~config d in
  let t =
    T.create
      ~title:"Register styles on plasma (50 ps skew): the pulsed-latch \
              trade-off of Section I"
      [ ("style", T.Left); ("regs", T.Right); ("hold buffers", T.Right);
        ("area", T.Right); ("clock mW", T.Right); ("total mW", T.Right) ]
  in
  (* one draw for the four styles: they read [d]'s inputs *)
  let stimulus =
    Runner.workload_draw d ~workload:b.Circuits.Suite.workload ~cycles:256
      ~seed:21
  in
  let row label design clocks ~hold_margin =
    let padded, hold = Sta.Hold_fix.run ~skew:0.05 ~hold_margin design ~clocks in
    let power = power_of_padded padded ~clocks ~stimulus in
    let stats = Netlist.Stats.compute padded in
    T.add_row t
      [ label;
        string_of_int stats.Netlist.Stats.registers;
        string_of_int hold.Sta.Hold_fix.buffers_added;
        T.f1 stats.Netlist.Stats.total_area;
        T.f2 power.Power.Estimate.clock;
        T.f2 (Power.Estimate.total power) ]
  in
  row "flip-flop" d ff_clocks ~hold_margin:0.02;
  row "pulsed latch" (Phase3.Pulsed_latch.convert d) ff_clocks
    ~hold_margin:Phase3.Pulsed_latch.hold_margin;
  row "master-slave" (Phase3.Master_slave.convert d) ff_clocks ~hold_margin:0.02;
  row "3-phase" flow.Phase3.Flow.final (Phase3.Flow.clocks_of config)
    ~hold_margin:0.02;
  t

(* --- frequency sweep ------------------------------------------------ *)

let frequency_sweep () =
  let b = Option.get (Circuits.Suite.find "s15850") in
  let d = b.Circuits.Suite.build () in
  let stimulus =
    Runner.workload_draw d ~workload:b.Circuits.Suite.workload ~cycles:256
      ~seed:31
  in
  let t =
    T.create
      ~title:"Frequency sweep on s15850: total power (mW) and saving"
      [ ("period ns", T.Right); ("freq MHz", T.Right);
        ("FF", T.Right); ("3-P", T.Right); ("save%", T.Right);
        ("FF clock share%", T.Right); ("FF timing", T.Right);
        ("3-P timing", T.Right) ]
  in
  List.iter
    (fun period ->
      let ff_clocks = Phase3.Flow.reference_clocks d ~period in
      let config = { (Phase3.Flow.default_config ~period) with
                     Phase3.Flow.verify_equivalence = false; lint = false } in
      let flow = Phase3.Flow.run ~config d in
      let measure design clocks =
        let padded, _ = Sta.Hold_fix.run design ~clocks in
        power_of_padded padded ~clocks ~stimulus
      in
      let pf = measure d ff_clocks in
      let p3 = measure flow.Phase3.Flow.final (Phase3.Flow.clocks_of config) in
      let ff_tot = Power.Estimate.total pf in
      let tp_tot = Power.Estimate.total p3 in
      let verdict design clocks =
        if Sta.Smo.ok (Sta.Smo.check design ~clocks) then "meets" else "FAILS"
      in
      T.add_row t
        [ T.f2 period;
          T.f1 (1000.0 /. period);
          T.f2 ff_tot;
          T.f2 tp_tot;
          T.f1 (100.0 *. (ff_tot -. tp_tot) /. ff_tot);
          T.f1 (100.0 *. pf.Power.Estimate.clock /. ff_tot);
          verdict d ff_clocks;
          verdict flow.Phase3.Flow.final (Phase3.Flow.clocks_of config) ])
    [0.4; 0.55; 0.8; 1.0; 1.5; 2.5];
  t
