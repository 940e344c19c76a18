module String_map = Map.Make (String)

type t = {
  lib_name : string;
  lib_tech : Tech.t;
  by_name : Cell.t String_map.t;
  ordered : Cell.t list;
}

let make ~name ~tech cells =
  let by_name =
    List.fold_left
      (fun acc (c : Cell.t) -> String_map.add c.Cell.name c acc)
      String_map.empty cells
  in
  { lib_name = name; lib_tech = tech; by_name; ordered = cells }

let name t = t.lib_name

let tech t = t.lib_tech

let cells t = t.ordered

let find t n = String_map.find_opt n t.by_name

let find_exn t n =
  match find t n with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Library.find_exn: no cell %s in %s" n t.lib_name)

let smallest ~what t pred =
  let candidates = List.filter pred t.ordered in
  match List.sort (fun (a : Cell.t) b -> compare a.Cell.area b.Cell.area) candidates with
  | c :: _ -> c
  | [] -> invalid_arg (Printf.sprintf "Library: no %s cell in %s" what t.lib_name)

let flip_flop t =
  let pred (c : Cell.t) = match c.Cell.kind with
    | Cell.Flip_flop { reset_pin = None; _ } -> true
    | Cell.Flip_flop _ | Cell.Combinational | Cell.Latch _ | Cell.Clock_gate _ -> false
  in
  smallest ~what:"flip-flop" t pred

let flip_flop_with_reset t =
  let pred (c : Cell.t) = match c.Cell.kind with
    | Cell.Flip_flop { reset_pin = Some _; _ } -> true
    | Cell.Flip_flop _ | Cell.Combinational | Cell.Latch _ | Cell.Clock_gate _ -> false
  in
  smallest ~what:"resettable flip-flop" t pred

let latch t ~transparent =
  let pred (c : Cell.t) = match c.Cell.kind with
    | Cell.Latch { transparent = lv; reset_pin = None; _ } -> lv = transparent
    | Cell.Latch _ | Cell.Combinational | Cell.Flip_flop _ | Cell.Clock_gate _ -> false
  in
  smallest ~what:"latch" t pred

let latch_with_reset t ~transparent =
  let pred (c : Cell.t) = match c.Cell.kind with
    | Cell.Latch { transparent = lv; reset_pin = Some _; _ } -> lv = transparent
    | Cell.Latch _ | Cell.Combinational | Cell.Flip_flop _ | Cell.Clock_gate _ -> false
  in
  smallest ~what:"resettable latch" t pred

let clock_gate t ~style =
  let pred (c : Cell.t) = match c.Cell.kind with
    | Cell.Clock_gate { style = s; _ } -> s = style
    | Cell.Combinational | Cell.Flip_flop _ | Cell.Latch _ -> false
  in
  smallest ~what:"clock-gate" t pred

(* Structural matching of single-output combinational functions. *)

let output_function (c : Cell.t) =
  match Cell.output_pins c with
  | [p] -> p.Cell.func
  | [] | _ :: _ :: _ -> None

let is_unary_fn match_fn (c : Cell.t) =
  c.Cell.kind = Cell.Combinational
  && List.length (Cell.input_pins c) = 1
  && (match output_function c with
      | Some f -> match_fn f
      | None -> false)

let inverter t =
  let pred = is_unary_fn (function
    | Expr.Not (Expr.Pin _) -> true
    | Expr.Const _ | Expr.Pin _ | Expr.Not _ | Expr.And _ | Expr.Or _ | Expr.Xor _ -> false)
  in
  smallest ~what:"inverter" t pred

let buffer t =
  let pred = is_unary_fn (function
    | Expr.Pin _ -> true
    | Expr.Const _ | Expr.Not _ | Expr.And _ | Expr.Or _ | Expr.Xor _ -> false)
  in
  smallest ~what:"buffer" t pred

let clock_buffer t =
  (* Prefer a cell named CLKBUF*, otherwise the largest buffer. *)
  let named =
    List.filter
      (fun (c : Cell.t) ->
        String.length c.Cell.name >= 6 && String.sub c.Cell.name 0 6 = "CLKBUF")
      t.ordered
  in
  match named with
  | c :: _ -> c
  | [] -> buffer t

let xor2 t =
  smallest ~what:"XOR2" t (fun (c : Cell.t) ->
    c.Cell.kind = Cell.Combinational
    && List.length (Cell.input_pins c) = 2
    && (match output_function c with
        | Some (Expr.Xor (Expr.Pin _, Expr.Pin _)) -> true
        | Some _ | None -> false))

let of_liberty src =
  let name, tech, cells = Liberty.parse src in
  make ~name ~tech cells

let to_liberty t =
  Format.asprintf "%a" Liberty.print (t.lib_name, t.lib_tech, t.ordered)
