module Design = Netlist.Design

type endpoint =
  | Reg of Design.inst
  | Port of string

type path = {
  src : endpoint;
  dst : endpoint;
  max_delay : float;
  min_delay : float;
}

let sources d =
  List.filter_map
    (fun i -> Option.map (fun q -> (Reg i, q)) (Design.q_net_of d i))
    (Design.sequential_insts d)
  @ List.filter_map
      (fun (p, net) -> if Design.is_clock_port d p then None else Some (Port p, net))
      d.Design.primary_inputs

let sinks d =
  List.filter_map
    (fun i -> Option.map (fun dn -> (Reg i, dn)) (Design.data_net_of d i))
    (Design.sequential_insts d)
  @ List.map (fun (p, net) -> (Port p, net)) d.Design.primary_outputs

let compute g =
  let dst_pins = sinks g.Graph.design in
  List.fold_left
    (fun paths (src, src_net) ->
      let amax, amin = Graph.forward g [src_net] in
      List.fold_left
        (fun paths (dst, dst_net) ->
          if amax.(dst_net) > Float.neg_infinity then
            { src; dst; max_delay = amax.(dst_net); min_delay = amin.(dst_net) }
            :: paths
          else paths)
        paths dst_pins)
    [] (sources g.Graph.design)

let forward_arrivals g =
  fst (Graph.forward g (List.map snd (sources g.Graph.design)))
