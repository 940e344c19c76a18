(* One conversion of every design of a workload, through the public API
   only: Phase3.Flow.run plus Verilog.write of the result on flow-mid,
   Experiments.Runner.run on paper-tables. *)

type converted = {
  flow : Phase3.Flow.result;
  text : string option;  (* the written netlist, when the pass writes it *)
  tables : Experiments.Runner.t option;
}

type outcome =
  | Converted of converted
  | Refused of string    (* a Flow_error: the flow declined the design *)
  | Crashed of string    (* any other exception *)

let config (i : Draw.input) = Phase3.Flow.default_config ~period:i.Draw.period

(* Runner.run takes a suite benchmark: keep the profile's period and
   testbench workload, and hand it the parsed design. *)
let bench_of (i : Draw.input) design =
  match Circuits.Suite.find i.Draw.profile with
  | Some b ->
    { b with Circuits.Suite.bench_name = i.Draw.name; build = (fun () -> design) }
  | None -> invalid_arg ("no suite benchmark named " ^ i.Draw.profile)

let convert_exn (w : Draw.workload) i design =
  if w.Draw.paper_tables then begin
    let t = Experiments.Runner.run (bench_of i design) in
    { flow = t.Experiments.Runner.flow; text = None; tables = Some t }
  end
  else begin
    let flow = Phase3.Flow.run ~config:(config i) design in
    { flow;
      text = Some (Netlist_io.Verilog.write flow.Phase3.Flow.final);
      tables = None }
  end

let convert w i design =
  match convert_exn w i design with
  | c -> Converted c
  | exception Phase3.Flow.Flow_error m -> Refused m
  | exception e -> Crashed (Printexc.to_string e)

let final_text c =
  match c.text with
  | Some t -> t
  | None -> Netlist_io.Verilog.write c.flow.Phase3.Flow.final

(* Runner's total 3-phase power, mW *)
let tables_power t =
  Power.Estimate.total t.Experiments.Runner.threep.Experiments.Runner.power

let run w cases = List.map (fun (i, design) -> convert w i design) cases
