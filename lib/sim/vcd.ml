type t = {
  engine : Engine.t;
  nets : (string * Netlist.Design.net) list;
  ids : string array;                       (* VCD short identifiers *)
  mutable samples : Logic.t array list;     (* reversed *)
}

(* VCD identifier characters: printable ASCII 33..126 *)
let short_id k =
  let base = 94 in
  let rec go k acc =
    let c = Char.chr (33 + (k mod base)) in
    let acc = String.make 1 c ^ acc in
    if k < base then acc else go ((k / base) - 1) acc
  in
  go k ""

let create engine ~nets =
  let design = Engine.design engine in
  let clock_nets =
    List.filter_map
      (fun port ->
        Option.map (fun n -> (port, n)) (Netlist.Design.find_input design port))
      design.Netlist.Design.clock_ports
  in
  let all = clock_nets @ nets in
  { engine;
    nets = all;
    ids = Array.of_list (List.mapi (fun k _ -> short_id k) all);
    samples = [] }

let create_default engine =
  let design = Engine.design engine in
  let pis =
    List.filter_map
      (fun (p, n) ->
        if Netlist.Design.is_clock_port design p then None else Some (p, n))
      design.Netlist.Design.primary_inputs
  in
  let pos = design.Netlist.Design.primary_outputs in
  let regs =
    List.filter_map
      (fun i ->
        Option.map
          (fun q -> (Netlist.Design.inst_name design i, q))
          (Netlist.Design.q_net_of design i))
      (Netlist.Design.sequential_insts design)
  in
  create engine ~nets:(pis @ pos @ regs)

let sample t =
  let values =
    Array.of_list
      (List.map (fun (_, n) -> Engine.net_value t.engine n) t.nets)
  in
  t.samples <- values :: t.samples

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' then c
      else '_')
    name

let render t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "$date reproduction run $end\n";
  add "$version threephase simulator $end\n";
  add "$timescale 1ns $end\n";
  add "$scope module %s $end\n"
    (sanitize (Engine.design t.engine).Netlist.Design.design_name);
  List.iteri
    (fun k (name, _) ->
      add "$var wire 1 %s %s $end\n" t.ids.(k) (sanitize name))
    t.nets;
  add "$upscope $end\n$enddefinitions $end\n";
  let samples = Array.of_list (List.rev t.samples) in
  let n = List.length t.nets in
  let prev = Array.make n None in
  Array.iteri
    (fun cycle values ->
      let changes = ref [] in
      for k = n - 1 downto 0 do
        let v = values.(k) in
        if prev.(k) <> Some v then begin
          prev.(k) <- Some v;
          changes := (k, v) :: !changes
        end
      done;
      if !changes <> [] then begin
        add "#%d\n" (cycle * 10);
        List.iter
          (fun (k, v) -> add "%c%s\n" (Logic.to_char v) t.ids.(k))
          !changes
      end)
    samples;
  add "#%d\n" (Array.length samples * 10);
  Buffer.contents buf

let run_and_dump engine stimulus =
  let t = create_default engine in
  List.iter
    (fun cycle ->
      ignore (Engine.run_cycle engine cycle);
      sample t)
    stimulus;
  render t
