(** A small JSON value type with a parser and a canonical printer, with
    no external dependency: the one JSON module behind QoR run records,
    benchmark files, the Chrome trace and lint's JSON and SARIF.

    The printer is {e canonical}: given the same value it always
    produces the same bytes (fixed two-space indentation, object keys
    in the order the value carries them, one float format).  Run
    records rely on this for the byte-identical-across-jobs guarantee,
    so do not "improve" the formatting casually.

    JSON has no NaN or infinities; {!render} encodes a non-finite
    {!Num} as the strings ["nan"], ["inf"] or ["-inf"] and
    {!to_float} converts them back, so metric maps round-trip even
    when a power model divides by zero. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Pretty canonical rendering, trailing newline included. *)
val render : t -> string

(** One-line canonical rendering (for [history.jsonl]), no newline. *)
val render_compact : t -> string

(** [quote s] is [s] as a JSON string literal, quotes included: ['"'],
    ['\\'] and control characters are escaped, every other byte is
    copied. *)
val quote : string -> string

(** Canonical float token: integers as ["42.0"], non-finite values as
    quoted strings, everything else as the shortest [%g] form that
    round-trips through [float_of_string]. *)
val float_token : float -> string

val parse : string -> (t, string) result

(** Object member lookup; [None] on missing key or non-object. *)
val member : string -> t -> t option

(** [Num] or the {!render} encoding of a non-finite float. *)
val to_float : t -> float option

(** {!to_float} restricted to integral values. *)
val to_int : t -> int option

val to_string : t -> string option
