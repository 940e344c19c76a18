type t = {
  name : string;
  lib : Cell_lib.Library.t;
  mutable net_names : string list;        (* reversed *)
  mutable n_nets : int;
  net_index : (string, int) Hashtbl.t;
  mutable insts : (string * Cell_lib.Cell.t * (string * Design.net) array) list;  (* reversed *)
  mutable n_insts : int;
  mutable inputs : (string * Design.net) list;   (* reversed *)
  mutable outputs : (string * Design.net) list;  (* reversed *)
  mutable clocks : string list;                  (* reversed *)
  mutable tie0 : Design.net option;
  mutable tie1 : Design.net option;
  mutable consts : (Design.net * bool) list;
}

let create ~name ~library = {
  name;
  lib = library;
  net_names = [];
  n_nets = 0;
  net_index = Hashtbl.create 1024;
  insts = [];
  n_insts = 0;
  inputs = [];
  outputs = [];
  clocks = [];
  tie0 = None;
  tie1 = None;
  consts = [];
}

let library b = b.lib

let fresh_net b base =
  let name =
    if Hashtbl.mem b.net_index base then (
      let rec try_suffix k =
        let candidate = Printf.sprintf "%s_%d" base k in
        if Hashtbl.mem b.net_index candidate then try_suffix (k + 1) else candidate
      in
      try_suffix 1)
    else base
  in
  let id = b.n_nets in
  b.n_nets <- id + 1;
  b.net_names <- name :: b.net_names;
  Hashtbl.add b.net_index name id;
  id

let add_input ?(clock = false) b port =
  let n = fresh_net b port in
  b.inputs <- (port, n) :: b.inputs;
  if clock then b.clocks <- port :: b.clocks;
  n

let add_output b port net = b.outputs <- (port, net) :: b.outputs

let const b v =
  let existing = if v then b.tie1 else b.tie0 in
  match existing with
  | Some n -> n
  | None ->
    let n = fresh_net b (if v then "tie1" else "tie0") in
    if v then b.tie1 <- Some n else b.tie0 <- Some n;
    b.consts <- (n, v) :: b.consts;
    n

let rec has_pin pin = function
  | [] -> false
  | (p, _) :: rest -> String.equal p pin || has_pin pin rest

let rec cell_has_pin pin = function
  | [] -> false
  | (p : Cell_lib.Cell.pin) :: rest ->
    String.equal p.Cell_lib.Cell.pin_name pin || cell_has_pin pin rest

let add_instance b inst_name cell conns =
  let rec check = function
    | [] -> ()
    | (pin, _) :: rest ->
      if not (cell_has_pin pin cell.Cell_lib.Cell.pins) then
        invalid_arg
          (Printf.sprintf "Builder.add_instance %s: cell %s has no pin %s"
             inst_name cell.Cell_lib.Cell.name pin);
      if has_pin pin rest then
        invalid_arg
          (Printf.sprintf "Builder.add_instance %s: pin %s connected twice"
             inst_name pin);
      check rest
  in
  check conns;
  let id = b.n_insts in
  b.n_insts <- id + 1;
  b.insts <- (inst_name, cell, Array.of_list conns) :: b.insts;
  id

let add_cell b inst_name cell_name conns =
  match Cell_lib.Library.find b.lib cell_name with
  | Some cell -> add_instance b inst_name cell conns
  | None ->
    invalid_arg
      (Printf.sprintf "Builder.add_cell %s: no cell %s in library" inst_name cell_name)

let size b = b.n_insts

let freeze b =
  let net_names = Array.of_list (List.rev b.net_names) in
  let n_nets = Array.length net_names in
  let insts = Array.of_list (List.rev b.insts) in
  let inst_names = Array.map (fun (n, _, _) -> n) insts in
  let inst_cells = Array.map (fun (_, c, _) -> c) insts in
  let inst_conns = Array.map (fun (_, _, cs) -> cs) insts in
  let net_driver = Array.make n_nets Design.Undriven in
  let net_sinks = Array.make n_nets [] in
  let set_driver n drv =
    match net_driver.(n) with
    | Design.Undriven -> net_driver.(n) <- drv
    | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _ ->
      invalid_arg
        (Printf.sprintf "Builder.freeze: net %s is multiply driven" net_names.(n))
  in
  List.iter (fun (port, n) -> set_driver n (Design.Driven_by_input port)) b.inputs;
  List.iter (fun (n, v) -> set_driver n (Design.Driven_const v)) b.consts;
  Array.iteri
    (fun i conns ->
      let cell = inst_cells.(i) in
      Array.iter
        (fun (pin, n) ->
          match Cell_lib.Cell.find_pin cell pin with
          | Some p when p.Cell_lib.Cell.direction = Cell_lib.Cell.Output ->
            set_driver n (Design.Driven_by (i, pin))
          | Some _ -> net_sinks.(n) <- (i, pin) :: net_sinks.(n)
          | None -> assert false)
        conns)
    inst_conns;
  Array.iteri (fun n sinks -> net_sinks.(n) <- List.rev sinks) net_sinks;
  { Design.design_name = b.name;
    library = b.lib;
    net_names;
    net_driver;
    net_sinks;
    inst_names;
    inst_cells;
    inst_conns;
    primary_inputs = List.rev b.inputs;
    primary_outputs = List.rev b.outputs;
    clock_ports = List.rev b.clocks }
