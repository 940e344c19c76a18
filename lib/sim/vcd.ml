(* VCD identifier characters: printable ASCII 33..126 *)
let short_id k =
  let base = 94 in
  let rec go k acc =
    let c = Char.chr (33 + (k mod base)) in
    let acc = String.make 1 c ^ acc in
    if k < base then acc else go ((k / base) - 1) acc
  in
  go k ""

let sanitize name =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' then c
      else '_')
    name

(* clock ports, then the other primary inputs, the primary outputs and
   the register outputs *)
let recorded design =
  let open Netlist.Design in
  List.filter_map
    (fun port -> Option.map (fun n -> (port, n)) (find_input design port))
    design.clock_ports
  @ List.filter (fun (p, _) -> not (is_clock_port design p)) design.primary_inputs
  @ design.primary_outputs
  @ List.filter_map
      (fun i -> Option.map (fun q -> (inst_name design i, q)) (q_net_of design i))
      (sequential_insts design)

let dump kernel draw =
  let design = Kernel.design kernel in
  let nets = Array.of_list (recorded design) in
  let n = Array.length nets in
  let sv, sx = Kernel.run_sampled kernel draw (Array.map snd nets) in
  (* lane 0 of net [k] after cycle [c] *)
  let value c k =
    let at = (c * n) + k in
    if sx.(at) land 1 <> 0 then Logic.LX
    else if sv.(at) land 1 <> 0 then Logic.L1
    else Logic.L0
  in
  let ids = Array.init n short_id in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "$date reproduction run $end\n";
  add "$version threephase simulator $end\n";
  add "$timescale 1ns $end\n";
  add "$scope module %s $end\n" (sanitize design.Netlist.Design.design_name);
  Array.iteri
    (fun k (name, _) -> add "$var wire 1 %s %s $end\n" ids.(k) (sanitize name))
    nets;
  add "$upscope $end\n$enddefinitions $end\n";
  let prev = Array.make n None in
  let cycles = draw.Stimulus.cycles in
  for c = 0 to cycles - 1 do
    let changed = ref false in
    for k = 0 to n - 1 do
      let v = value c k in
      if prev.(k) <> Some v then begin
        if not !changed then add "#%d\n" (c * 10);
        changed := true;
        prev.(k) <- Some v;
        add "%c%s\n" (Logic.to_char v) ids.(k)
      end
    done
  done;
  add "#%d\n" (cycles * 10);
  Buffer.contents buf
