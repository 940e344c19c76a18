type t = L0 | L1 | LX

let equal a b = a = b

let of_bool b = if b then L1 else L0

let lnot = function L0 -> L1 | L1 -> L0 | LX -> LX

let land_ a b =
  match a, b with
  | L0, _ | _, L0 -> L0
  | L1, L1 -> L1
  | LX, (L1 | LX) | L1, LX -> LX

let lor_ a b =
  match a, b with
  | L1, _ | _, L1 -> L1
  | L0, L0 -> L0
  | LX, (L0 | LX) | L0, LX -> LX

let lxor_ a b =
  match a, b with
  | LX, _ | _, LX -> LX
  | L0, L0 | L1, L1 -> L0
  | L0, L1 | L1, L0 -> L1

let rec eval_expr env = function
  | Cell_lib.Expr.Const b -> of_bool b
  | Cell_lib.Expr.Pin p -> env p
  | Cell_lib.Expr.Not e -> lnot (eval_expr env e)
  | Cell_lib.Expr.And (a, b) -> land_ (eval_expr env a) (eval_expr env b)
  | Cell_lib.Expr.Or (a, b) -> lor_ (eval_expr env a) (eval_expr env b)
  | Cell_lib.Expr.Xor (a, b) -> lxor_ (eval_expr env a) (eval_expr env b)

let rising ~from_ ~to_ = from_ = L0 && to_ = L1

let to_char = function L0 -> '0' | L1 -> '1' | LX -> 'x'

let pp ppf v = Format.pp_print_char ppf (to_char v)
