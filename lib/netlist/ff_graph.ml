type t = {
  members : Design.inst array;
  position : (Design.inst, int) Hashtbl.t;
  fanout : int list array;
  fanin : int list array;
  self_loop : bool array;
  pi_names : string array;
  pi_fanout : int list array;
}

let build d =
  let members = Array.of_list (Design.sequential_insts d) in
  let n = Array.length members in
  let position = Hashtbl.create (2 * n) in
  Array.iteri (fun pos i -> Hashtbl.add position i pos) members;
  let fanout = Array.make n [] in
  let fanin = Array.make n [] in
  let self_loop = Array.make n false in
  let reach_from net =
    List.filter_map
      (fun i -> Hashtbl.find_opt position i)
      (Traverse.reachable_seq_inputs d ~from:net)
  in
  Array.iteri
    (fun pos i ->
      match Design.q_net_of d i with
      | None -> ()
      | Some q ->
        let outs = reach_from q in
        fanout.(pos) <- outs;
        List.iter
          (fun v ->
            if v = pos then self_loop.(pos) <- true;
            fanin.(v) <- pos :: fanin.(v))
          outs)
    members;
  Array.iteri (fun v ins -> fanin.(v) <- List.rev ins) fanin;
  let pis =
    List.filter (fun (p, _) -> not (Design.is_clock_port d p)) d.Design.primary_inputs
  in
  let pi_names = Array.of_list (List.map fst pis) in
  let pi_fanout =
    Array.of_list (List.map (fun (_, net) -> reach_from net) pis)
  in
  { members; position; fanout; fanin; self_loop; pi_names; pi_fanout }

let size g = Array.length g.members

let self_loop_count g =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 g.self_loop
