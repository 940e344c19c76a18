type path_element =
  | Through_icg of Design.inst
  | Through_buffer of Design.inst

type trace = {
  root_port : string;
  elements : path_element list;
}

let is_buffer_like (c : Cell_lib.Cell.t) =
  c.Cell_lib.Cell.kind = Cell_lib.Cell.Combinational
  && List.length (Cell_lib.Cell.input_pins c) = 1

let trace_to_root d net =
  let rec go net acc fuel =
    if fuel = 0 then None
    else
      match d.Design.net_driver.(net) with
      | Design.Driven_by_input port ->
        if Design.is_clock_port d port then Some { root_port = port; elements = acc }
        else None
      | Design.Driven_const _ | Design.Undriven -> None
      | Design.Driven_by (i, _) ->
        let c = Design.cell d i in
        (match c.Cell_lib.Cell.kind with
         | Cell_lib.Cell.Clock_gate { clock_pin; _ } ->
           (match Design.pin_net_opt d i clock_pin with
            | Some upstream -> go upstream (Through_icg i :: acc) (fuel - 1)
            | None -> None)
         | Cell_lib.Cell.Combinational when is_buffer_like c ->
           (match Design.input_nets d i with
            | [upstream] -> go upstream (Through_buffer i :: acc) (fuel - 1)
            | [] | _ :: _ :: _ -> None)
         | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
         | Cell_lib.Cell.Latch _ -> None)
  in
  go net [] 10_000

let gating_icg d net =
  match trace_to_root d net with
  | None -> None
  | Some { elements; _ } ->
    List.fold_left
      (fun acc el -> match el with Through_icg i -> Some i | Through_buffer _ -> acc)
      None elements

type network = {
  insts : Design.inst array;
  has_net : Design.net -> bool;
}

let walks_through d i pin =
  let c = Design.cell d i in
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Clock_gate { clock_pin; _ } -> String.equal pin clock_pin
  | Cell_lib.Cell.Combinational -> is_buffer_like c
  | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> false

let network d =
  let net_seen = Bytes.make (Design.num_nets d) '\000' in
  (* a cell whose clock pin is connected twice (the Verilog reader
     accepts [.CK(clk), .CK(clk)]) sits twice in one sink list *)
  let inst_seen = Bytes.make (Design.num_insts d) '\000' in
  let order = ref [] in
  let frontier = Queue.create () in
  List.iter
    (fun port -> Option.iter (fun n -> Queue.add n frontier) (Design.find_input d port))
    d.Design.clock_ports;
  while not (Queue.is_empty frontier) do
    let net = Queue.pop frontier in
    if Bytes.get net_seen net = '\000' then begin
      Bytes.set net_seen net '\001';
      List.iter
        (fun (i, pin) ->
          if Bytes.get inst_seen i = '\000' && walks_through d i pin then begin
            Bytes.set inst_seen i '\001';
            order := i :: !order;
            List.iter (fun n -> Queue.add n frontier) (Design.output_nets d i)
          end)
        d.Design.net_sinks.(net)
    end
  done;
  { insts = Array.of_list (List.rev !order);
    has_net = (fun n -> Bytes.get net_seen n <> '\000') }

let root_port d i =
  Option.bind (Design.clock_net_of d i) (fun net ->
      Option.map (fun t -> t.root_port) (trace_to_root d net))
