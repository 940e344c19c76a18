type entry = {
  net : Netlist.Design.net;
  net_name : string;
  toggles : int;
  rate : float;
}

type t = {
  design_name : string;
  cycles : int;
  entries : entry list;
}

let of_counts design ~toggles ~cycles =
  let denom = max 1 cycles in
  let entries =
    List.init (Netlist.Design.num_nets design) (fun net ->
        { net;
          net_name = Netlist.Design.net_name design net;
          toggles = toggles.(net);
          rate = float_of_int toggles.(net) /. float_of_int denom })
    |> List.sort (fun a b -> compare b.toggles a.toggles)
  in
  { design_name = design.Netlist.Design.design_name; cycles; entries }

let capture engine =
  of_counts (Engine.design engine)
    ~toggles:(Engine.toggles engine)
    ~cycles:(Engine.cycles engine)

(* entries cover every net exactly once (of_counts enumerates them all),
   so the dense array can be rebuilt from the sorted list *)
let counts t =
  let n = List.length t.entries in
  let toggles = Array.make n 0 in
  List.iter (fun e -> toggles.(e.net) <- e.toggles) t.entries;
  (toggles, t.cycles)

let quiet_nets t ~threshold =
  List.filter (fun e -> e.rate < threshold) t.entries

let mean_rate t =
  match t.entries with
  | [] -> 0.0
  | es ->
    List.fold_left (fun acc e -> acc +. e.rate) 0.0 es
    /. float_of_int (List.length es)

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
  add "(SAIFILE\n (SAIFVERSION \"2.0\")\n (DIRECTION \"backward\")\n";
  add " (DURATION %d)\n (INSTANCE %s\n  (NET\n" t.cycles (sanitize t.design_name);
  List.iter
    (fun e -> add "   (%s (TC %d))\n" (sanitize e.net_name) e.toggles)
    t.entries;
  add "  )\n )\n)\n";
  Buffer.contents buf
