(** Three-valued simulation logic: 0, 1 and X (unknown). *)

type t = L0 | L1 | LX

val equal : t -> t -> bool

val of_bool : bool -> t

val lnot : t -> t

val land_ : t -> t -> t

val lor_ : t -> t -> t

val lxor_ : t -> t -> t

(** Evaluate a cell function over logic values supplied per pin name. *)
val eval_expr : (string -> t) -> Cell_lib.Expr.t -> t

(** [rising ~from_ ~to_] — a clean 0 -> 1 transition. *)
val rising : from_:t -> to_:t -> bool

val to_char : t -> char

val pp : Format.formatter -> t -> unit
