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
  Obs.span "netlist.ff_graph.build" @@ fun () ->
  let members = Array.of_list (Design.sequential_insts d) in
  let n = Array.length members in
  let position = Hashtbl.create (2 * n) in
  Array.iteri (fun pos i -> Hashtbl.add position i pos) members;
  let fanout = Array.make n [] in
  let fanin = Array.make n [] in
  let self_loop = Array.make n false in
  (* A walk goes forward from one net through combinational instances
     only and lists the positions whose data pin it reaches, in the
     order it reaches them.  [seen] (per net) and [found] (per position)
     hold the number of the last walk that marked them, so the walks
     share two arrays and clear neither. *)
  let pos_of = Array.make (Design.num_insts d) (-1) in
  Array.iteri (fun pos i -> pos_of.(i) <- pos) members;
  let comb_outs =
    Array.init (Design.num_insts d) (fun i ->
        match (Design.cell d i).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Combinational -> Design.output_nets d i
        | _ -> [])
  in
  let seen = Array.make (Design.num_nets d) 0 in
  let found = Array.make n 0 in
  let walks = ref 0 in
  let reach_from net =
    incr walks;
    let stamp = !walks in
    let order = ref [] in
    let rec walk net =
      if seen.(net) <> stamp then begin
        seen.(net) <- stamp;
        List.iter
          (fun (i, pin) ->
            match (Design.cell d i).Cell_lib.Cell.kind with
            | Cell_lib.Cell.Combinational -> List.iter walk comb_outs.(i)
            | Cell_lib.Cell.Flip_flop { data_pin; _ }
            | Cell_lib.Cell.Latch { data_pin; _ } ->
              let pos = pos_of.(i) in
              if String.equal pin data_pin && found.(pos) <> stamp then begin
                found.(pos) <- stamp;
                order := pos :: !order
              end
            | Cell_lib.Cell.Clock_gate _ -> ())
          d.Design.net_sinks.(net)
      end
    in
    walk net;
    List.rev !order
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
