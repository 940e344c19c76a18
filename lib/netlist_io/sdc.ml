exception Error of Srcloc.t option * string

let () =
  Printexc.register_printer (function
    | Error (loc, msg) ->
      Some
        (Printf.sprintf "Netlist_io.Sdc.Error (%s)"
           (match loc with
            | Some l -> Srcloc.to_string l ^ ": " ^ msg
            | None -> msg))
    | _ -> None)

(* --- Writer --- *)

let write d ~clocks =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let period = clocks.Sim.Clock_spec.period in
  add "# SDC for %s (written by threephase)\n" d.Netlist.Design.design_name;
  let defined_clocks =
    List.filter
      (fun port ->
        List.exists (fun (p, _) -> String.equal p port) clocks.Sim.Clock_spec.ports)
      d.Netlist.Design.clock_ports
  in
  List.iter
    (fun port ->
      match List.assoc_opt port clocks.Sim.Clock_spec.ports with
      | None -> ()
      | Some w ->
        let rise = w.Sim.Clock_spec.rise_at *. period in
        let fall = w.Sim.Clock_spec.fall_at *. period in
        add
          "create_clock -name %s -period %.4f -waveform {%.4f %.4f} [get_ports %s]\n"
          port period rise fall port)
    defined_clocks;
  (match defined_clocks with
   | _ :: _ :: _ ->
     add "set_clock_groups -physically_exclusive -group {%s}\n"
       (String.concat "} -group {" defined_clocks)
   | [] | [_] -> ());
  List.iter
    (fun port -> add "set_clock_uncertainty 0.0500 [get_clocks %s]\n" port)
    defined_clocks;
  let launch_clock = match defined_clocks with c :: _ -> c | [] -> "clk" in
  List.iter
    (fun (port, _) ->
      if not (Netlist.Design.is_clock_port d port) then
        add "set_input_delay 0.1000 -clock %s [get_ports %s]\n" launch_clock port)
    d.Netlist.Design.primary_inputs;
  List.iter
    (fun (port, _) ->
      add "set_output_delay 0.1000 -clock %s [get_ports %s]\n" launch_clock port)
    d.Netlist.Design.primary_outputs;
  Buffer.contents buf

(* --- Reader --- *)

type target =
  | Ports of string list
  | All_inputs
  | All_outputs

type clock = {
  clock_name : string;
  source_port : string option;
  period : float;
  waveform : (float * float) option;
}

type io_delay = {
  io_ports : target;
  relative_to : string option;
  delay : float;
  is_min : bool;
}

type constraints = {
  clocks : clock list;
  input_delays : io_delay list;
  output_delays : io_delay list;
  uncertainties : (string option * float) list;
  ignored : (Srcloc.t * string) list;
}

(* One logical SDC line, split into Tcl-ish words: plain words, [...]
   command substitutions (kept whole, brackets stripped) and {...} brace
   groups (kept whole, braces stripped). *)
type word =
  | Word of string
  | Bracket of string
  | Brace of string

let fail ~src loc fmt =
  Format.kasprintf
    (fun msg -> raise (Error (Some loc, Srcloc.message ~source:src ~loc msg)))
    fmt

(* Split a physical source into logical lines: strip # comments, join
   backslash continuations.  Returns (line_number, text) pairs where the
   number is the first physical line of the logical line. *)
let logical_lines src =
  let raw = String.split_on_char '\n' src in
  let strip line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let out = ref [] and pending = ref None and lineno = ref 0 in
  List.iter
    (fun line ->
      incr lineno;
      let line = strip line in
      let trimmed = String.trim line in
      let starts = match !pending with None -> !lineno | Some (n, _) -> n in
      let prefix = match !pending with None -> "" | Some (_, p) -> p ^ " " in
      if String.length trimmed > 0
      && trimmed.[String.length trimmed - 1] = '\\' then
        pending :=
          Some (starts, prefix ^ String.sub trimmed 0 (String.length trimmed - 1))
      else begin
        pending := None;
        let full = String.trim (prefix ^ trimmed) in
        if full <> "" then out := (starts, full) :: !out
      end)
    raw;
  (match !pending with
   | Some (n, p) -> if String.trim p <> "" then out := (n, String.trim p) :: !out
   | None -> ());
  List.rev !out

(* Split one logical line into words, honouring nested [] and {}. *)
let words_of_line ~src ~file lineno line =
  let n = String.length line in
  let loc col = Srcloc.make ~file ~line:lineno ~col in
  let ws = ref [] in
  let i = ref 0 in
  let grab_group open_c close_c =
    let start = !i in
    let depth = ref 0 in
    (try
       while !i < n do
         if line.[!i] = open_c then incr depth
         else if line.[!i] = close_c then begin
           decr depth;
           if !depth = 0 then raise Exit
         end;
         incr i
       done;
       fail ~src (loc (start + 1)) "unterminated %c...%c group" open_c close_c
     with Exit -> ());
    let inner = String.sub line (start + 1) (!i - start - 1) in
    incr i;
    inner
  in
  while !i < n do
    match line.[!i] with
    | ' ' | '\t' -> incr i
    | '[' -> ws := (Bracket (grab_group '[' ']'), loc (!i + 1)) :: !ws
    | '{' -> ws := (Brace (grab_group '{' '}'), loc (!i + 1)) :: !ws
    | _ ->
      let start = !i in
      while !i < n && not (List.mem line.[!i] [' '; '\t'; '['; '{']) do incr i done;
      ws := (Word (String.sub line start (!i - start)), loc (start + 1)) :: !ws
  done;
  List.rev !ws

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* $NAME / ${NAME} substitution from `set` variables. *)
let substitute ~src env loc s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  let is_var_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    if s.[!i] = '$' && !i + 1 < n then begin
      let name, stop =
        if s.[!i + 1] = '{' then
          match String.index_from_opt s (!i + 2) '}' with
          | Some j -> (String.sub s (!i + 2) (j - !i - 2), j + 1)
          | None -> fail ~src loc "unterminated ${...} in %s" s
        else begin
          let j = ref (!i + 1) in
          while !j < n && is_var_char s.[!j] do incr j done;
          (String.sub s (!i + 1) (!j - !i - 1), !j)
        end
      in
      (match Hashtbl.find_opt env name with
       | Some v -> Buffer.add_string buf v
       | None -> fail ~src loc "undefined variable $%s" name);
      i := stop
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let float_arg ~src loc what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail ~src loc "%s expects a number, got %S" what s

(* Interpret an object-access word: [get_ports x], [get_ports {a b}],
   [all_inputs], [all_outputs], [get_clocks c], or a bare name. *)
let target_of ~src loc = function
  | Word w -> Some (Ports [w])
  | Brace b -> Some (Ports (split_ws b))
  | Bracket b ->
    (match split_ws b with
     | "get_ports" :: rest ->
       let names =
         List.concat_map
           (fun w ->
             let w =
               if String.length w >= 2 && w.[0] = '{'
               && w.[String.length w - 1] = '}'
               then String.sub w 1 (String.length w - 2)
               else w
             in
             split_ws w)
           rest
       in
       if names = [] then fail ~src loc "get_ports with no ports" else Some (Ports names)
     | ["all_inputs"] -> Some All_inputs
     | ["all_outputs"] -> Some All_outputs
     | _ -> None)

let clock_name_of = function
  | Word w -> Some w
  | Brace b -> (match split_ws b with [c] -> Some c | _ -> None)
  | Bracket b ->
    (match split_ws b with
     | ["get_clocks"; c] -> Some c
     | _ -> None)

let parse ?(file = "<sdc>") src =
  let env : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let clocks = ref [] in
  let input_delays = ref [] in
  let output_delays = ref [] in
  let uncertainties = ref [] in
  let ignored = ref [] in
  let handle_line (lineno, line) =
    match words_of_line ~src ~file lineno line with
    | [] -> ()
    | (first_w, first_loc) :: rest ->
      let subst (w, l) =
        match w with
        | Word s -> (Word (substitute ~src env l s), l)
        | Brace s -> (Brace (substitute ~src env l s), l)
        | Bracket s -> (Bracket (substitute ~src env l s), l)
      in
      let rest = List.map subst rest in
      let cmd = match first_w with Word s -> s | Brace s | Bracket s -> s in
      let line_loc = first_loc in
      match cmd with
      | "set" ->
        (match rest with
         | [(Word name, _); (value, _)] ->
           let v = match value with Word s | Brace s | Bracket s -> s in
           Hashtbl.replace env name v
         | _ -> fail ~src line_loc "set expects: set NAME VALUE")
      | "create_clock" ->
        (* -min/-max don't apply; -add tolerated *)
        let name = ref None and period = ref None and waveform = ref None in
        let port = ref None in
        let rec go = function
          | [] -> ()
          | (Word "-name", _) :: (Word v, _) :: tl -> name := Some v; go tl
          | (Word "-period", l) :: (v, _) :: tl ->
            let s = match v with Word s | Brace s | Bracket s -> s in
            period := Some (float_arg ~src l "-period" s); go tl
          | (Word "-waveform", l) :: (Brace b, _) :: tl ->
            (match split_ws b with
             | [r; f] ->
               waveform :=
                 Some (float_arg ~src l "-waveform" r, float_arg ~src l "-waveform" f);
               go tl
             | _ -> fail ~src l "-waveform expects {rise fall}")
          | (Word "-add", _) :: tl -> go tl
          | (w, l) :: tl ->
            (match target_of ~src l w with
             | Some (Ports [p]) -> port := Some p; go tl
             | Some (Ports _) -> fail ~src l "create_clock expects one source port"
             | Some (All_inputs | All_outputs) | None ->
               fail ~src l "unexpected argument to create_clock")
        in
        go rest;
        (match !period with
         | None -> fail ~src line_loc "create_clock needs -period"
         | Some p ->
           let clock_name =
             match !name, !port with
             | Some n, _ -> n
             | None, Some port -> port
             | None, None ->
               fail ~src line_loc "create_clock needs -name or a source port"
           in
           clocks :=
             { clock_name; source_port = !port; period = p; waveform = !waveform }
             :: !clocks)
      | "set_input_delay" | "set_output_delay" ->
        let clock = ref None and is_min = ref false and delay = ref None in
        let target = ref None in
        let rec go = function
          | [] -> ()
          | (Word "-clock", l) :: (v, _) :: tl ->
            (match clock_name_of v with
             | Some c -> clock := Some c; go tl
             | None -> fail ~src l "-clock expects a clock name")
          | (Word "-min", _) :: tl -> is_min := true; go tl
          | (Word "-max", _) :: tl -> is_min := false; go tl
          | (Word "-clock_fall", _) :: tl | (Word "-add_delay", _) :: tl -> go tl
          | (Word w, l) :: tl when !delay = None
                               && float_of_string_opt w <> None ->
            delay := Some (float_arg ~src l "delay" w); go tl
          | (w, l) :: tl ->
            (match target_of ~src l w with
             | Some t -> target := Some t; go tl
             | None -> fail ~src l "unexpected argument to %s" cmd)
        in
        go rest;
        (match !delay, !target with
         | Some d, Some t ->
           let entry =
             { io_ports = t; relative_to = !clock; delay = d; is_min = !is_min }
           in
           if String.equal cmd "set_input_delay" then
             input_delays := entry :: !input_delays
           else output_delays := entry :: !output_delays
         | None, _ -> fail ~src line_loc "%s needs a delay value" cmd
         | _, None -> fail ~src line_loc "%s needs a port list" cmd)
      | "set_clock_uncertainty" ->
        let value = ref None and clock = ref None in
        let rec go = function
          | [] -> ()
          | (Word "-setup", _) :: tl | (Word "-hold", _) :: tl -> go tl
          | (Word w, l) :: tl when !value = None && float_of_string_opt w <> None ->
            value := Some (float_arg ~src l "uncertainty" w); go tl
          | (w, _) :: tl ->
            (match clock_name_of w with
             | Some c -> clock := Some c; go tl
             | None -> go tl)
        in
        go rest;
        (match !value with
         | Some v -> uncertainties := (!clock, v) :: !uncertainties
         | None -> fail ~src line_loc "set_clock_uncertainty needs a value")
      | _ ->
        (* anything else (set_clock_groups, set_false_path, set_units,
           set_load, ...) is recorded but does not affect the flow *)
        ignored := (line_loc, line) :: !ignored
  in
  List.iter handle_line (logical_lines src);
  { clocks = List.rev !clocks;
    input_delays = List.rev !input_delays;
    output_delays = List.rev !output_delays;
    uncertainties = List.rev !uncertainties;
    ignored = List.rev !ignored }

let period cs = match cs.clocks with [] -> None | c :: _ -> Some c.period

let clock_port cs =
  List.find_map (fun c -> c.source_port) cs.clocks
