(* Minimal JSON with a canonical printer.  The byte-stability of run
   records across THREEPHASE_JOBS settings rests on [render] being a
   pure function of the value — fixed indentation, caller-ordered
   object keys, one float format — so keep it boring. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_token f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest %g form that round-trips, so parse-then-render is the
       identity on record files *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let add_value buf ~compact v =
  let pad n = if not compact then Buffer.add_string buf (String.make n ' ') in
  let nl () = if not compact then Buffer.add_char buf '\n' in
  let rec go indent v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (float_token f)
    | Str s -> Buffer.add_string buf (quote s)
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          nl ();
          pad (indent + 2);
          go (indent + 2) v)
        vs;
      nl ();
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl ();
          pad (indent + 2);
          Buffer.add_string buf (quote k);
          Buffer.add_string buf (if compact then ":" else ": ");
          go (indent + 2) v)
        kvs;
      nl ();
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 v

let render v =
  let buf = Buffer.create 1024 in
  add_value buf ~compact:false v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let render_compact v =
  let buf = Buffer.create 256 in
  add_value buf ~compact:true v;
  Buffer.contents buf

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let hex_digit () =
    match peek () with
    | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           let start = !pos in
           hex_digit (); hex_digit (); hex_digit (); hex_digit ();
           let code = int_of_string ("0x" ^ String.sub s start 4) in
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c; advance ()
         | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
         | None -> fail "unterminated escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let keyword kw v =
    let m = String.length kw in
    if !pos + m <= n && String.sub s !pos m = kw then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" kw)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Num f -> Some f
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | Null | Bool _ | Str _ | Arr _ | Obj _ -> None

let to_int v =
  match to_float v with
  | Some f when Float.is_integer f && Float.abs f < 1e15 ->
    Some (int_of_float f)
  | Some _ | None -> None

let to_string = function Str s -> Some s | _ -> None
