let is_comb d i = (Design.cell d i).Cell_lib.Cell.kind = Cell_lib.Cell.Combinational

(* Kahn's algorithm restricted to combinational instances. *)
let comb_topo d =
  let n = Design.num_insts d in
  let indegree = Array.make n 0 in
  let comb = Array.init n (is_comb d) in
  (* indegree counts combinational fanin instances, not nets *)
  for i = 0 to n - 1 do
    if comb.(i) then
      List.iter
        (fun net ->
          match d.Design.net_driver.(net) with
          | Design.Driven_by (j, _) when comb.(j) -> indegree.(i) <- indegree.(i) + 1
          | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
          | Design.Undriven -> ())
        (Design.input_nets d i)
  done;
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if comb.(i) && indegree.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  let total = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 comb in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    incr seen;
    List.iter
      (fun net ->
        List.iter
          (fun (j, _) ->
            if comb.(j) then begin
              indegree.(j) <- indegree.(j) - 1;
              if indegree.(j) = 0 then Queue.add j queue
            end)
          d.Design.net_sinks.(net))
      (Design.output_nets d i)
  done;
  if !seen = total then Ok (List.rev !order)
  else begin
    (* Every instance left behind has a left-behind combinational
       driver, so walking drivers from the first of them must revisit
       an instance; the walk from there back to itself is a cycle. *)
    let stuck i = comb.(i) && indegree.(i) > 0 in
    let driver i =
      match
        List.find_map
          (fun net ->
            match d.Design.net_driver.(net) with
            | Design.Driven_by (j, _) when stuck j -> Some j
            | Design.Driven_by _ | Design.Driven_by_input _
            | Design.Driven_const _ | Design.Undriven -> None)
          (Design.input_nets d i)
      with
      | Some j -> j
      | None -> assert false
    in
    let visited = Array.make n false in
    let rec walk i =
      if visited.(i) then i
      else begin
        visited.(i) <- true;
        walk (driver i)
      end
    in
    let first = ref 0 in
    while not (stuck !first) do incr first done;
    let entry = walk !first in
    (* walking drivers runs against the signal, so prepending each one
       lists the rest of the cycle in signal order after [entry] *)
    let rec back i acc = if i = entry then acc else back (driver i) (i :: acc) in
    Error (entry :: back (driver entry) [])
  end

let comb_topo_exn d =
  match comb_topo d with
  | Ok order -> order
  | Error insts ->
    invalid_arg
      (Printf.sprintf "combinational cycle through %d instances (e.g. %s)"
         (List.length insts)
         (match insts with [] -> "?" | i :: _ -> Design.inst_name d i))

let net_levels d =
  let levels = Array.make (Design.num_nets d) 0 in
  let order = comb_topo_exn d in
  List.iter
    (fun i ->
      let in_level =
        List.fold_left (fun acc net -> max acc levels.(net)) 0 (Design.input_nets d i)
      in
      List.iter (fun net -> levels.(net) <- in_level + 1) (Design.output_nets d i))
    order;
  levels
