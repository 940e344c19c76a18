module Design = Netlist.Design

type t = {
  level : int array;
  seq_level : int;
  n_buckets : int;
  cyclic_level : int option;
}

let is_comb_like (c : Cell_lib.Cell.t) =
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ -> true
  | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> false

let compute d =
  let n = Design.num_insts d in
  let level = Array.make n 0 in
  let indeg = Array.make n 0 in
  let comb = Array.init n (fun i -> is_comb_like (Design.cell d i)) in
  let comb_driver net =
    match d.Design.net_driver.(net) with
    | Design.Driven_by (i, _) when comb.(i) -> Some i
    | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
    | Design.Undriven -> None
  in
  for i = 0 to n - 1 do
    if comb.(i) then
      List.iter
        (fun net ->
          match comb_driver net with
          | Some _ -> indeg.(i) <- indeg.(i) + 1
          | None -> ())
        (Design.input_nets d i)
  done;
  let queue = Queue.create () in
  let processed = ref 0 in
  for i = 0 to n - 1 do
    if comb.(i) && indeg.(i) = 0 then Queue.add i queue
  done;
  let max_level = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr processed;
    if level.(i) > !max_level then max_level := level.(i);
    List.iter
      (fun net ->
        List.iter
          (fun (j, _) ->
            if comb.(j) then begin
              if level.(i) + 1 > level.(j) then level.(j) <- level.(i) + 1;
              indeg.(j) <- indeg.(j) - 1;
              if indeg.(j) = 0 then Queue.add j queue
            end)
          d.Design.net_sinks.(net))
      (Design.output_nets d i)
  done;
  (* combinational cycles (only possible in degenerate inputs): park the
     remaining instances in one bucket past the acyclic core; repeated
     waves still converge or trip the oscillation budget *)
  let cyc = !max_level + 1 in
  let any_cyclic = ref false in
  for i = 0 to n - 1 do
    if comb.(i) && indeg.(i) > 0 then begin
      any_cyclic := true;
      level.(i) <- cyc
    end
  done;
  let seq_level = if !any_cyclic then cyc + 1 else !max_level + 1 in
  for i = 0 to n - 1 do
    if not comb.(i) then level.(i) <- seq_level
  done;
  { level; seq_level; n_buckets = seq_level + 1;
    cyclic_level = (if !any_cyclic then Some cyc else None) }
