module Design = Netlist.Design

type t = {
  x : float array;
  y : float array;
  die_width : float;
  die_height : float;
  rows : int;
}

(* Positions of the cells on a net: driver first when placed. *)
let net_positions d pl net =
  let sinks = List.map fst d.Design.net_sinks.(net) in
  let insts =
    match d.Design.net_driver.(net) with
    | Design.Driven_by (i, _) -> i :: sinks
    | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> sinks
  in
  List.map (fun i -> (pl.x.(i), pl.y.(i))) insts

let net_hpwl d pl net =
  match net_positions d pl net with
  | [] | [_] -> 0.0
  | (x0, y0) :: rest ->
    let xmin, xmax, ymin, ymax =
      List.fold_left
        (fun (a, b, c, e) (x, y) ->
          (Float.min a x, Float.max b x, Float.min c y, Float.max e y))
        (x0, x0, y0, y0) rest
    in
    (xmax -. xmin) +. (ymax -. ymin)

let total_wirelength d pl =
  let sum = ref 0.0 in
  for n = 0 to Design.num_nets d - 1 do
    sum := !sum +. net_hpwl d pl n
  done;
  !sum

let place d =
  let tech = Cell_lib.Library.tech d.Design.library in
  let n = Design.num_insts d in
  let total_area =
    Design.fold_insts
      (fun i acc -> acc +. (Design.cell d i).Cell_lib.Cell.area)
      d 0.0
  in
  (* cells fill 70% of the die *)
  let die_area = Float.max 1.0 (total_area /. 0.7) in
  let die_width = Float.max tech.Cell_lib.Tech.row_height (sqrt die_area) in
  let rows =
    Stdlib.max 1 (int_of_float (die_width /. tech.Cell_lib.Tech.row_height))
  in
  let die_height = float_of_int rows *. tech.Cell_lib.Tech.row_height in
  (* initial order: BFS from primary inputs through the netlist *)
  let order = Array.make n (-1) in
  let rank = Array.make n max_int in
  let next = ref 0 in
  let queue = Queue.create () in
  let enqueue i =
    if rank.(i) = max_int then begin
      rank.(i) <- !next;
      order.(!next) <- i;
      incr next;
      Queue.add i queue
    end
  in
  List.iter
    (fun (_, net) -> List.iter (fun (i, _) -> enqueue i) d.Design.net_sinks.(net))
    d.Design.primary_inputs;
  let bfs () =
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      List.iter
        (fun net -> List.iter (fun (j, _) -> enqueue j) d.Design.net_sinks.(net))
        (Design.output_nets d i)
    done
  in
  bfs ();
  for i = 0 to n - 1 do
    enqueue i;
    bfs ()
  done;
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let per_row = (n + rows - 1) / max 1 rows in
  let slot_width = die_width /. float_of_int (max 1 per_row) in
  let assign_positions ordering =
    Array.iteri
      (fun k i ->
        let row = k / per_row and col = k mod per_row in
        (* snake rows for locality *)
        let col = if row mod 2 = 0 then col else per_row - 1 - col in
        x.(i) <- (float_of_int col +. 0.5) *. slot_width;
        y.(i) <- (float_of_int row +. 0.5) *. tech.Cell_lib.Tech.row_height)
      ordering
  in
  assign_positions order;
  let pl = { x; y; die_width; die_height; rows } in
  (* barycenter refinement: move each instance towards the centroid of its
     neighbours, then re-legalize by sorting *)
  let neighbours = Array.make n [] in
  for net = 0 to Design.num_nets d - 1 do
    let insts =
      (match d.Design.net_driver.(net) with
       | Design.Driven_by (i, _) -> [i]
       | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> [])
      @ List.map fst d.Design.net_sinks.(net)
    in
    (* gated-clock nets cluster their bank around the gate (clock-aware
       placement: short gated subtrees); other huge nets (free clocks)
       are skipped *)
    let gated_clock =
      match d.Design.net_driver.(net) with
      | Design.Driven_by (i, _) -> Cell_lib.Cell.is_clock_gate (Design.cell d i)
      | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven ->
        false
    in
    if gated_clock then
      (* double weight pulls the bank tight *)
      List.iter
        (fun i ->
          let others = List.filter (fun j -> j <> i) insts in
          neighbours.(i) <- others @ others @ neighbours.(i))
        insts
    else if List.length insts <= 16 then
      List.iter
        (fun i ->
          neighbours.(i) <-
            List.filter (fun j -> j <> i) insts @ neighbours.(i))
        insts
  done;
  for _pass = 1 to 4 do
    let desired =
      Array.init n (fun i ->
          match neighbours.(i) with
          | [] -> (x.(i), y.(i))
          | ns ->
            let sx = List.fold_left (fun a j -> a +. x.(j)) 0.0 ns in
            let sy = List.fold_left (fun a j -> a +. y.(j)) 0.0 ns in
            let c = float_of_int (List.length ns) in
            (sx /. c, sy /. c))
    in
    (* order instances by desired (row, x) and re-assign slots *)
    let keyed =
      Array.init n (fun i ->
          let dx, dy = desired.(i) in
          (dy, dx, i))
    in
    Array.sort compare keyed;
    let new_order = Array.map (fun (_, _, i) -> i) keyed in
    assign_positions new_order
  done;
  pl
