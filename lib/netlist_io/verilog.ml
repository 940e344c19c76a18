exception Error of Srcloc.t option * string

let () =
  Printexc.register_printer (function
    | Error (loc, msg) ->
      Some
        (Printf.sprintf "Netlist_io.Verilog.Error (%s)"
           (match loc with
            | Some l -> Srcloc.to_string l ^ ": " ^ msg
            | None -> msg))
    | _ -> None)

(* --- Lexer --- *)

type token =
  | Id of string
  | Lit of bool           (* 1'b0 / 1'b1 *)
  | Punct of char         (* ( ) ; , . = *)
  | Eof

let conventional_clock_names = ["clk"; "clock"; "p1"; "p2"; "p3"; "clkbar"]

let scan_clock_comment src =
  (* Look for "// @clocks a b c" anywhere in the source. *)
  let tag = "@clocks" in
  match
    Seq.find_map
      (fun line ->
        let line = String.trim line in
        if String.length line > 2 && String.sub line 0 2 = "//" then
          let rest = String.trim (String.sub line 2 (String.length line - 2)) in
          if String.length rest >= String.length tag
          && String.sub rest 0 (String.length tag) = tag
          then
            Some
              (String.sub rest (String.length tag)
                 (String.length rest - String.length tag)
               |> String.split_on_char ' '
               |> List.map String.trim
               |> List.filter (fun s -> not (String.equal s "")))
          else None
        else None)
      (List.to_seq (String.split_on_char '\n' src))
  with
  | Some clocks -> Some clocks
  | None -> None

(* The lexer walks the raw string and keeps a parallel line/column count,
   so every token carries the Srcloc.t it started at. *)
let tokenize ~file src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let loc_at i = Srcloc.make ~file ~line:!line ~col:(i - !bol + 1) in
  let fail i fmt =
    Format.kasprintf
      (fun msg ->
        raise (Error (Some (loc_at i), Srcloc.message ~source:src ~loc:(loc_at i) msg)))
      fmt
  in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_' || c = '$' || c = '[' || c = ']'
  in
  let newline i = incr line; bol := i + 1 in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | '\n' -> newline i; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        let j = ref i in
        while !j < n && src.[!j] <> '\n' do incr j done;
        go !j
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let j = ref (i + 2) in
        while !j + 1 < n && not (src.[!j] = '*' && src.[!j + 1] = '/') do
          if src.[!j] = '\n' then newline !j;
          incr j
        done;
        go (!j + 2)
      | '(' | ')' | ';' | ',' | '.' | '=' as c ->
        toks := (Punct c, loc_at i) :: !toks;
        go (i + 1)
      | '1' when i + 3 < n && src.[i + 1] = '\'' && (src.[i + 2] = 'b' || src.[i + 2] = 'B') ->
        (match src.[i + 3] with
         | '0' -> toks := (Lit false, loc_at i) :: !toks; go (i + 4)
         | '1' -> toks := (Lit true, loc_at i) :: !toks; go (i + 4)
         | c -> fail i "bad literal 1'b%c" c)
      | c when is_id c ->
        let j = ref i in
        while !j < n && is_id src.[!j] do incr j done;
        toks := (Id (String.sub src i (!j - i)), loc_at i) :: !toks;
        go !j
      | c -> fail i "unexpected character %C" c
  in
  go 0;
  List.rev !toks

(* --- Parser --- *)

type st = {
  mutable toks : (token * Srcloc.t) list;
  src : string;
  mutable last_loc : Srcloc.t;
}

let cur_loc st =
  match st.toks with [] -> st.last_loc | (_, l) :: _ -> l

let error_at st loc fmt =
  Format.kasprintf
    (fun msg ->
      raise (Error (Some loc, Srcloc.message ~source:st.src ~loc msg)))
    fmt

let error st fmt = error_at st (cur_loc st) fmt

let peek st = match st.toks with [] -> Eof | (t, _) :: _ -> t

let next st =
  match st.toks with
  | [] -> Eof
  | (t, l) :: rest -> st.toks <- rest; st.last_loc <- l; t

let token_text = function
  | Id s -> s
  | Lit b -> if b then "1'b1" else "1'b0"
  | Punct p -> String.make 1 p
  | Eof -> "<eof>"

let expect_punct st c =
  match peek st with
  | Punct p when p = c -> ignore (next st)
  | t -> error st "expected %C, got %s" c (token_text t)

let expect_id st =
  match peek st with
  | Id s -> ignore (next st); s
  | Lit _ | Punct _ | Eof -> error st "expected identifier"

let rec pin_direction pin = function
  | [] -> raise Not_found
  | (p : Cell_lib.Cell.pin) :: rest ->
    if String.equal p.Cell_lib.Cell.pin_name pin then p.Cell_lib.Cell.direction
    else pin_direction pin rest

let parse ?(file = "<string>") ?clocks ~library src =
  let clock_names =
    match scan_clock_comment src, clocks with
    | Some cs, _ -> cs
    | None, Some cs -> cs
    | None, None -> conventional_clock_names
  in
  let is_clock name = List.exists (String.equal name) clock_names in
  let st =
    { toks = tokenize ~file src; src;
      last_loc = Srcloc.make ~file ~line:1 ~col:1 }
  in
  (match next st with
   | Id "module" -> ()
   | _ -> error st "expected 'module'");
  let module_name = expect_id st in
  (* port list (names only; directions come from declarations) *)
  (match peek st with
   | Punct '(' ->
     ignore (next st);
     let rec ports () =
       match next st with
       | Punct ')' -> ()
       | Id _ | Punct ',' -> ports ()
       | Lit _ | Punct _ | Eof -> error st "malformed port list"
     in
     ports ()
   | Punct _ | Id _ | Lit _ | Eof -> ());
  expect_punct st ';';
  let b = Netlist.Builder.create ~name:module_name ~library in
  let nets : (string, Netlist.Design.net) Hashtbl.t = Hashtbl.create 1024 in
  let outputs = ref [] in        (* declared output port names, reversed *)
  let aliases = ref [] in        (* assign lhs = rhs pairs, reversed *)
  (* where each net's driver appears, indexed by net and packed as
     [line lsl 20 lor col] (ints: no write barrier): 0 until the net has
     a driver, [constant] for a tie net.  A second driver is refused
     where it appears and names the first.  Grown to cover every net
     declared so far, so that the first instance after the
     declarations sizes it once. *)
  let constant = -1 in
  let driver_at = ref [||] in
  let at (loc : Srcloc.t) =
    (loc.Srcloc.line lsl 20) lor min loc.Srcloc.col 0xfffff
  in
  (* records [where] as [net]'s driver; returns the earlier one *)
  let claim net where =
    let a = !driver_at in
    if net >= Array.length a then begin
      driver_at := Array.make (max (2 * (net + 1)) (Hashtbl.length nets + 3)) 0;
      Array.blit a 0 !driver_at 0 (Array.length a)
    end;
    let first = !driver_at.(net) in
    !driver_at.(net) <- where;
    first
  in
  let refuse_second loc first ~name what =
    if first = constant then
      error_at st loc "%s drives %s, which is a constant" what name
    else
      error_at st loc "%s drives net %s, which is already driven at %s" what
        name
        (Srcloc.to_string
           (Srcloc.make ~file ~line:(first lsr 20) ~col:(first land 0xfffff)))
  in
  let const v =
    let n = Netlist.Builder.const b v in
    ignore (claim n constant);
    n
  in
  let inputs = Hashtbl.create 64 in
  let declare_wire name =
    if not (Hashtbl.mem nets name) then
      Hashtbl.add nets name (Netlist.Builder.fresh_net b name)
  in
  let rec id_list acc =
    let name = expect_id st in
    match next st with
    | Punct ';' -> List.rev (name :: acc)
    | Punct ',' -> id_list (name :: acc)
    | Id _ | Lit _ | Punct _ | Eof -> error st "malformed declaration list"
  in
  let net_of name =
    match Hashtbl.find_opt nets name with
    | Some n -> n
    | None -> error st "undeclared signal %s" name
  in
  let parse_instance cell_name =
    let cell_loc = st.last_loc in
    let inst_name = expect_id st in
    let cell =
      match Cell_lib.Library.find library cell_name with
      | None ->
        error_at st cell_loc "unknown cell %s (instance %s)" cell_name inst_name
      | Some cell -> cell
    in
    expect_punct st '(';
    let conns = ref [] in
    let rec connections () =
      match next st with
      | Punct ')' -> ()
      | Punct ',' -> connections ()
      | Punct '.' ->
        let pin_loc = cur_loc st in
        let pin = expect_id st in
        let output =
          match pin_direction pin cell.Cell_lib.Cell.pins with
          | direction -> direction = Cell_lib.Cell.Output
          | exception Not_found ->
            error_at st pin_loc "cell %s has no pin %s (instance %s)" cell_name
              pin inst_name
        in
        if Netlist.Builder.has_pin pin !conns then
          error_at st pin_loc "pin %s of instance %s is connected twice" pin
            inst_name;
        expect_punct st '(';
        let tok = next st in
        let net =
          match tok with
          | Id sig_name -> net_of sig_name
          | Lit v -> const v
          | Punct _ | Eof -> error st "malformed connection for pin %s" pin
        in
        if output then begin
          let first = claim net (at pin_loc) in
          if first <> 0 then
            refuse_second pin_loc first ~name:(token_text tok)
              ("pin " ^ pin ^ " of instance " ^ inst_name)
        end;
        expect_punct st ')';
        conns := (pin, net) :: !conns;
        connections ()
      | Id _ | Lit _ | Punct _ | Eof -> error st "malformed instance %s" inst_name
    in
    connections ();
    expect_punct st ';';
    ignore (Netlist.Builder.add_instance b inst_name cell (List.rev !conns))
  in
  let rec body () =
    match next st with
    | Id "endmodule" -> ()
    | Id "input" ->
      let loc = st.last_loc in
      let names = id_list [] in
      List.iter
        (fun name ->
          if Hashtbl.mem nets name then error st "duplicate declaration of %s" name;
          let net = Netlist.Builder.add_input ~clock:(is_clock name) b name in
          Hashtbl.add nets name net;
          Hashtbl.add inputs name ();
          ignore (claim net (at loc)))
        names;
      body ()
    | Id "output" ->
      let loc = st.last_loc in
      let names = id_list [] in
      List.iter
        (fun name ->
          if Hashtbl.mem inputs name then
            error_at st loc "%s is declared both input and output" name;
          declare_wire name;
          outputs := name :: !outputs)
        names;
      body ()
    | Id "wire" ->
      List.iter declare_wire (id_list []);
      body ()
    | Id "assign" ->
      let loc = cur_loc st in
      let lhs = expect_id st in
      expect_punct st '=';
      (match next st with
       | Lit v ->
         (* tie: if the name is already a declared net (possibly already
            connected), drive it from the constant; otherwise bind the
            name directly to the constant net *)
         (match Hashtbl.find_opt nets lhs with
          | Some existing ->
            let first = claim existing (at loc) in
            if first <> 0 then
              refuse_second loc first ~name:lhs ("assign " ^ lhs);
            Netlist.Gates.emit b Netlist.Gates.Buf [const v]
              ~out:existing ~prefix:("tie_" ^ lhs)
          | None -> Hashtbl.replace nets lhs (const v))
       | Id rhs -> aliases := (lhs, rhs, loc) :: !aliases
       | Punct _ | Eof -> error st "malformed assign");
      expect_punct st ';';
      body ()
    | Id cell_name -> parse_instance cell_name; body ()
    | Eof -> error st "missing endmodule"
    | Lit _ | Punct _ -> error st "unexpected token in module body"
  in
  body ();
  (* resolve aliases: output port -> source net; otherwise insert a buffer *)
  let alias_map = Hashtbl.create 16 in
  List.iter (fun (lhs, rhs, _) -> Hashtbl.replace alias_map lhs rhs) !aliases;
  let rec resolve name fuel =
    if fuel = 0 then error st "alias cycle at %s" name
    else
      match Hashtbl.find_opt alias_map name with
      | Some rhs -> resolve rhs (fuel - 1)
      | None -> net_of name
  in
  let output_names = List.rev !outputs in
  List.iter
    (fun (lhs, rhs, loc) ->
      if not (List.exists (String.equal lhs) output_names) then begin
        (* plain wire alias: buffer rhs onto lhs *)
        let out = net_of lhs in
        let first = claim out (at loc) in
        if first <> 0 then
          refuse_second loc first ~name:lhs ("assign " ^ lhs);
        Netlist.Gates.emit b Netlist.Gates.Buf [net_of rhs] ~out
          ~prefix:("alias_" ^ lhs)
      end)
    (List.rev !aliases);
  List.iter
    (fun name -> Netlist.Builder.add_output b name (resolve name 1000))
    output_names;
  Netlist.Builder.freeze b

(* --- Writer --- *)

let write d =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  let add_list sep f l =
    List.iteri
      (fun k x ->
        if k > 0 then add sep;
        f x)
      l
  in
  (match d.Netlist.Design.clock_ports with
   | [] -> ()
   | cs ->
     add "// @clocks ";
     add_list " " add cs;
     add "\n");
  let pi_names = List.map fst d.Netlist.Design.primary_inputs in
  let po_names = List.map fst d.Netlist.Design.primary_outputs in
  add "module ";
  add d.Netlist.Design.design_name;
  add " (";
  add_list ", " add (pi_names @ po_names);
  add ");\n";
  List.iter (fun p -> add "  input "; add p; add ";\n") pi_names;
  List.iter (fun p -> add "  output "; add p; add ";\n") po_names;
  (* wires: every net that is not a PI net and not identical to a port
     name *)
  let pi_net = Array.make (Netlist.Design.num_nets d) false in
  List.iter (fun (_, n) -> pi_net.(n) <- true) d.Netlist.Design.primary_inputs;
  let port_names = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace port_names p ()) (pi_names @ po_names);
  let consts = ref [] in
  for n = 0 to Netlist.Design.num_nets d - 1 do
    let name = Netlist.Design.net_name d n in
    (match d.Netlist.Design.net_driver.(n) with
     | Netlist.Design.Driven_const v -> consts := (name, v) :: !consts
     | Netlist.Design.Driven_by _ | Netlist.Design.Driven_by_input _
     | Netlist.Design.Undriven -> ());
    if (not pi_net.(n)) && not (Hashtbl.mem port_names name) then begin
      add "  wire "; add name; add ";\n"
    end
  done;
  List.iter
    (fun (name, v) ->
      add "  assign "; add name; add (if v then " = 1'b1;\n" else " = 1'b0;\n"))
    (List.rev !consts);
  for i = 0 to Netlist.Design.num_insts d - 1 do
    add "  ";
    add (Netlist.Design.cell d i).Cell_lib.Cell.name;
    add " ";
    add (Netlist.Design.inst_name d i);
    add " (";
    Array.iteri
      (fun k (pin, n) ->
        if k > 0 then add ", ";
        add "."; add pin; add "("; add (Netlist.Design.net_name d n); add ")")
      d.Netlist.Design.inst_conns.(i);
    add ");\n"
  done;
  (* output ports whose net has a different name need an alias *)
  List.iter
    (fun (port, n) ->
      let name = Netlist.Design.net_name d n in
      if not (String.equal port name) then begin
        add "  assign "; add port; add " = "; add name; add ";\n"
      end)
    d.Netlist.Design.primary_outputs;
  add "endmodule\n";
  Buffer.contents buf
