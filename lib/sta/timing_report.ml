module Design = Netlist.Design

type step = {
  inst : Design.inst;
  cell : string;
  through : string;
  delay : float;
  arrival : float;
}

type path = {
  startpoint : string;
  endpoint : Paths.endpoint;
  total_delay : float;
  steps : step list;
}

(* Walk back from [net] through the instance whose output realises the
   worst arrival, collecting steps in reverse. *)
let trace (g : Graph.t) arrivals net =
  let d = g.design in
  let rec go net acc =
    match d.Design.net_driver.(net) with
    | Design.Driven_by (i, _) ->
      let c = Design.cell d i in
      (match c.Cell_lib.Cell.kind with
       | Cell_lib.Cell.Combinational ->
         let step = {
           inst = i;
           cell = c.Cell_lib.Cell.name;
           through = Design.net_name d net;
           delay = g.delay_max.(i);
           arrival = arrivals.(net);
         } in
         (* pick the input pin with the largest arrival *)
         let worst_in =
           Array.fold_left
             (fun best n ->
               match best with
               | None -> Some n
               | Some b -> if arrivals.(n) > arrivals.(b) then Some n else best)
             None g.inputs.(i)
         in
         (match worst_in with
          | Some n when arrivals.(n) > Float.neg_infinity -> go n (step :: acc)
          | Some _ | None -> (Design.inst_name d i, step :: acc))
       | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _
       | Cell_lib.Cell.Clock_gate _ -> (Design.inst_name d i, acc))
    | Design.Driven_by_input port -> (port, acc)
    | Design.Driven_const _ | Design.Undriven ->
      (Design.net_name d net, acc)
  in
  go net []

let worst_paths ?(count = 5) d =
  let g = Graph.create d in
  let arrivals = Paths.forward_arrivals g in
  let reached =
    List.filter (fun (_, n) -> arrivals.(n) > Float.neg_infinity) (Paths.sinks d)
  in
  List.sort (fun (_, a) (_, b) -> compare arrivals.(b) arrivals.(a)) reached
  |> List.filteri (fun k _ -> k < count)
  |> List.map (fun (endpoint, net) ->
      let startpoint, steps = trace g arrivals net in
      { startpoint; endpoint; total_delay = arrivals.(net); steps })

let pp_path d ppf p =
  let endpoint_name = match p.endpoint with
    | Paths.Reg i -> Design.inst_name d i ^ "/D"
    | Paths.Port port -> "output " ^ port
  in
  Format.fprintf ppf "@[<v 2>path %s -> %s: %.4f ns@," p.startpoint endpoint_name
    p.total_delay;
  List.iter
    (fun s ->
      Format.fprintf ppf "%-24s %-12s +%.4f = %.4f (%s)@,"
        (Design.inst_name d s.inst) s.cell s.delay s.arrival s.through)
    p.steps;
  Format.fprintf ppf "@]"

let pp d ppf paths =
  List.iteri
    (fun k p -> Format.fprintf ppf "#%d %a@." (k + 1) (pp_path d) p)
    paths
