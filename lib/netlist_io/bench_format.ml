exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type line =
  | L_input of string
  | L_output of string
  | L_gate of string * string * string list  (* target, op, args *)

let parse_line lineno raw =
  let line =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let line = String.trim line in
  if String.equal line "" then None
  else
    let paren_call s =
      match String.index_opt s '(' with
      | None -> error "line %d: expected '(' in %S" lineno s
      | Some i ->
        let head = String.trim (String.sub s 0 i) in
        (match String.rindex_opt s ')' with
         | None -> error "line %d: missing ')' in %S" lineno s
         | Some j when j > i ->
           let inner = String.sub s (i + 1) (j - i - 1) in
           let args =
             String.split_on_char ',' inner
             |> List.map String.trim
             |> List.filter (fun a -> not (String.equal a ""))
           in
           (head, args)
         | Some _ -> error "line %d: malformed %S" lineno s)
    in
    match String.index_opt line '=' with
    | Some i ->
      let target = String.trim (String.sub line 0 i) in
      let rhs = String.sub line (i + 1) (String.length line - i - 1) in
      let op, args = paren_call rhs in
      Some (L_gate (target, String.uppercase_ascii op, args))
    | None ->
      let head, args = paren_call line in
      (match String.uppercase_ascii head, args with
       | "INPUT", [a] -> Some (L_input a)
       | "OUTPUT", [a] -> Some (L_output a)
       | _, _ -> error "line %d: unrecognised statement %S" lineno line)

let op_of_string lineno = function
  | "AND" -> Netlist.Gates.And
  | "OR" -> Netlist.Gates.Or
  | "NAND" -> Netlist.Gates.Nand
  | "NOR" -> Netlist.Gates.Nor
  | "XOR" -> Netlist.Gates.Xor
  | "XNOR" -> Netlist.Gates.Xnor
  | "NOT" | "INV" -> Netlist.Gates.Not
  | "BUF" | "BUFF" -> Netlist.Gates.Buf
  | other -> error "line %d: unknown gate %s" lineno other

let parse ~name ~library source =
  let lines =
    String.split_on_char '\n' source
    |> List.mapi (fun k raw -> (k + 1, parse_line (k + 1) raw))
    |> List.filter_map (fun (k, l) -> Option.map (fun l -> (k, l)) l)
  in
  let b = Netlist.Builder.create ~name ~library in
  let nets : (string, Netlist.Design.net) Hashtbl.t = Hashtbl.create 1024 in
  let has_dff =
    List.exists (function _, L_gate (_, "DFF", _) -> true | _, _ -> false) lines
  in
  let clock =
    if has_dff then Some (Netlist.Builder.add_input ~clock:true b "clock") else None
  in
  (* declare primary inputs; in a file with DFFs, INPUT(clock) declares
     the implicit clock port *)
  List.iter
    (function
      | k, L_input a ->
        if Hashtbl.mem nets a then error "line %d: duplicate INPUT(%s)" k a;
        Hashtbl.add nets a
          (match clock with
           | Some ck when String.equal a "clock" -> ck
           | Some _ | None -> Netlist.Builder.add_input b a)
      | _, (L_output _ | L_gate _) -> ())
    lines;
  let inputs = Hashtbl.copy nets in
  (* declare gate targets *)
  List.iter
    (function
      | k, L_gate (target, _, _) ->
        if Hashtbl.mem nets target then error "line %d: %s multiply defined" k target;
        Hashtbl.add nets target (Netlist.Builder.fresh_net b target)
      | _, (L_input _ | L_output _) -> ())
    lines;
  let net_of k n =
    match Hashtbl.find_opt nets n with
    | Some net -> net
    | None -> error "line %d: undefined signal %s" k n
  in
  (* build gates *)
  let dff_count = ref 0 in
  List.iter
    (function
      | k, L_gate (target, "DFF", [d]) ->
        let ck = match clock with Some c -> c | None -> assert false in
        incr dff_count;
        ignore
          (Netlist.Builder.add_cell b
             (Printf.sprintf "%s_reg" target)
             "DFF_X1"
             [("CK", ck); ("D", net_of k d); ("Q", net_of k target)])
      | k, L_gate (_, "DFF", args) ->
        error "line %d: DFF takes one input, got %d" k (List.length args)
      | k, L_gate (target, op, args) ->
        let inputs = List.map (net_of k) args in
        let gate = op_of_string k op in
        (match gate, inputs with
         | _, [] -> error "line %d: gate %s has no inputs" k target
         | (Netlist.Gates.Not | Netlist.Gates.Buf), _ :: _ :: _ ->
           error "line %d: %s takes one input, got %d" k op (List.length args)
         | _, _ :: _ -> ());
        Netlist.Gates.emit b gate inputs ~out:(net_of k target) ~prefix:target
      | _, (L_input _ | L_output _) -> ())
    lines;
  (* primary outputs *)
  let outputs = Hashtbl.create 64 in
  List.iter
    (function
      | k, L_output a ->
        if Hashtbl.mem outputs a then error "line %d: duplicate OUTPUT(%s)" k a;
        if Hashtbl.mem inputs a then
          error "line %d: %s is both an INPUT and an OUTPUT" k a;
        Hashtbl.add outputs a ();
        Netlist.Builder.add_output b a (net_of k a)
      | _, (L_input _ | L_gate _) -> ())
    lines;
  Netlist.Builder.freeze b

(* --- Writer --- *)

let bench_op_of_cell (c : Cell_lib.Cell.t) =
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Flip_flop _ -> Some "DFF"
  | Cell_lib.Cell.Latch _ | Cell_lib.Cell.Clock_gate _ -> None
  | Cell_lib.Cell.Combinational ->
    let n = c.Cell_lib.Cell.name in
    let prefix p = String.length n >= String.length p && String.sub n 0 (String.length p) = p in
    if prefix "INV" then Some "NOT"
    else if prefix "BUF" || prefix "CLKBUF" then Some "BUFF"
    else if prefix "NAND" then Some "NAND"
    else if prefix "NOR" then Some "NOR"
    else if prefix "XNOR" then Some "XNOR"
    else if prefix "XOR" then Some "XOR"
    else if prefix "AND" then Some "AND"
    else if prefix "OR" then Some "OR"
    else None

let write d =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# %s (written by threephase)\n" d.Netlist.Design.design_name;
  List.iter
    (fun (port, _) ->
      if not (Netlist.Design.is_clock_port d port) then add "INPUT(%s)\n" port)
    d.Netlist.Design.primary_inputs;
  List.iter (fun (port, _) -> add "OUTPUT(%s)\n" port) d.Netlist.Design.primary_outputs;
  for i = 0 to Netlist.Design.num_insts d - 1 do
    let c = Netlist.Design.cell d i in
    match bench_op_of_cell c with
    | None ->
      raise (Error (Printf.sprintf "cell %s of instance %s has no .bench equivalent"
                      c.Cell_lib.Cell.name (Netlist.Design.inst_name d i)))
    | Some "DFF" ->
      let q = match Netlist.Design.q_net_of d i with Some q -> q | None -> assert false in
      let dnet =
        match Netlist.Design.data_net_of d i with Some x -> x | None -> assert false
      in
      add "%s = DFF(%s)\n" (Netlist.Design.net_name d q) (Netlist.Design.net_name d dnet)
    | Some op ->
      let out =
        match Netlist.Design.output_nets d i with
        | [o] -> o
        | [] | _ :: _ :: _ ->
          raise (Error (Printf.sprintf "instance %s must drive exactly one net"
                          (Netlist.Design.inst_name d i)))
      in
      let ins = Netlist.Design.input_nets d i in
      add "%s = %s(%s)\n" (Netlist.Design.net_name d out) op
        (String.concat ", " (List.map (Netlist.Design.net_name d) ins))
  done;
  Buffer.contents buf
