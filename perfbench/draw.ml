(* Seeded workload draws.  Every design of a workload is a re-seeded
   copy of one of the repository's benchmark profiles, rendered to
   structural Verilog: the program under test only ever sees that text
   (plus the clock period a CLI user would pass on the command line). *)

type input = {
  name : string;         (* profile name plus the draw's seed, e.g. s5378-1 *)
  profile : string;      (* the Suite benchmark the draw re-seeds *)
  period : float;        (* ns, the profile's published clock *)
  text : string;         (* structural Verilog handed to the parser *)
  ffs : int;
  insts : int;
}

type workload = {
  wl_name : string;
  paper_tables : bool;   (* Experiments.Runner.run instead of Flow.run *)
  inputs : input list;
}

let names = [ "flow-mid"; "paper-tables" ]

(* Mixes the workload seed into a profile's own generator seed: new
   wiring, same size, layering and feedback character. *)
let render ~seed k (spec : Circuits.Generator.spec) =
  let spec =
    { spec with
      Circuits.Generator.seed =
        (spec.Circuits.Generator.seed * 1_000_003) + (seed * 7_919) + k }
  in
  let d = Circuits.Generator.synthesize spec in
  { name = Printf.sprintf "%s-%d" spec.Circuits.Generator.name seed;
    profile = spec.Circuits.Generator.name;
    period = 1000.0 /. spec.Circuits.Generator.frequency_mhz;
    text = Netlist_io.Verilog.write d;
    ffs = (Netlist.Stats.compute d).Netlist.Stats.flip_flops;
    insts = Netlist.Design.num_insts d }

let workload name ~seed =
  let open Circuits in
  let specs =
    match name with
    | "flow-mid" -> [ Iscas.s1196; Iscas.s5378; Iscas.s13207; Cep.des3; Cep.md5 ]
    | "paper-tables" -> [ Iscas.s5378; Cep.des3 ]
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { wl_name = name;
    paper_tables = name = "paper-tables";
    inputs = List.mapi (render ~seed) specs }
