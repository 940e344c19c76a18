(* The benchmark's own check of each conversion, outside the timed
   passes.  It takes nothing the flow says about itself on trust. *)

(* Owned by the benchmark, unlike the flow's activity_seed + 17. *)
let stimulus_seed = 0x5eed

let latches d = (Netlist.Stats.compute d).Netlist.Stats.latches

(* [Ok c], or [Error why] where [why] says whether the flow refused the
   design or produced a wrong one. *)
let check ~library ((i : Draw.input), design) = function
  | Pass.Refused m -> Error ("refused: " ^ m)
  | Pass.Crashed m -> Error ("wrong: raised " ^ m)
  | Pass.Converted c ->
    let r = c.Pass.flow in
    let config = r.Phase3.Flow.config and a = r.Phase3.Flow.assignment in
    let final = r.Phase3.Flow.final in
    let problems = ref [] in
    let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    (match Phase3.Assignment.validate design a with
     | [] -> ()
     | issues -> problem "assignment invalid: %s" (String.concat "; " issues));
    let total = Phase3.Assignment.total_latches a
    and inserted = a.Phase3.Assignment.inserted_latches in
    if total <> i.Draw.ffs + inserted then
      problem "total_latches %d is not %d flip-flops + %d inserted" total
        i.Draw.ffs inserted;
    (match Netlist_io.Verilog.parse ~library (Pass.final_text c) with
     | back ->
       if latches back <> latches final then
         problem "the written netlist has %d latches, the design %d"
           (latches back) (latches final)
     | exception Netlist_io.Verilog.Error (_, m) ->
       problem "the written netlist does not parse: %s" m);
    let stimulus =
      Sim.Stimulus.random ~seed:stimulus_seed
        ~cycles:config.Phase3.Flow.verify_cycles ~toggle_probability:0.3
        (Sim.Stimulus.inputs_of design)
    in
    (match
       Sim.Equivalence.check ~reference:design ~dut:final
         ~reference_clocks:
           (Phase3.Flow.reference_clocks design
              ~period:config.Phase3.Flow.period)
         ~dut_clocks:(Phase3.Flow.clocks_of config) ~stimulus ()
     with
     | Sim.Equivalence.Equivalent _ -> ()
     | Sim.Equivalence.Mismatch m ->
       problem "not stream-equivalent: %s"
         (Format.asprintf "%a" Sim.Equivalence.pp_mismatch m));
    (match List.rev !problems with
     | [] -> Ok c
     | ps -> Error ("wrong: " ^ String.concat "; " ps))

(* Total 3-phase power, mW: Runner's own figure on paper-tables; on
   flow-mid the same Power.Estimate path (Runner.power_of) under the
   profile's testbench workload. *)
let power (i : Draw.input) (c : Pass.converted) =
  match c.Pass.tables with
  | Some t -> Pass.tables_power t
  | None ->
    let r = c.Pass.flow in
    let workload =
      (Pass.bench_of i r.Phase3.Flow.original).Circuits.Suite.workload
    in
    Power.Estimate.total
      (Experiments.Runner.power_of r.Phase3.Flow.final
         ~clocks:(Phase3.Flow.clocks_of r.Phase3.Flow.config)
         ~workload ~cycles:128 ~seed:stimulus_seed)
