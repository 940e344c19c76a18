(** Mutable netlist construction.  Typical usage:

    {[
      let b = Builder.create ~name:"top" ~library in
      let clk = Builder.add_input b "clk" ~clock:true in
      let a = Builder.add_input b "a" in
      let n1 = Builder.fresh_net b "n1" in
      ignore (Builder.add_cell b "u1" "INV_X1" [ "A", a; "ZN", n1 ]);
      Builder.add_output b "y" n1;
      let design = Builder.freeze b in
      ...
    ]}

    [freeze] checks structural sanity (every pin known to the cell, at most
    one driver per net) and computes the driver/sink indexes. *)

type t

val create : name:string -> library:Cell_lib.Library.t -> t

val library : t -> Cell_lib.Library.t

(** [fresh_net b base] creates a new net.  If [base] is already used, a
    numeric suffix is appended to keep names unique. *)
val fresh_net : t -> string -> Design.net

(** [add_input b port] creates a primary input port and its net.  Ports
    with [~clock:true] are recorded as clock roots. *)
val add_input : ?clock:bool -> t -> string -> Design.net

(** [add_output b port net] makes [net] the primary output [port].
    Raises [Invalid_argument] when [port] is already an input port. *)
val add_output : t -> string -> Design.net -> unit

(** [const b v] returns the net tied to constant [v], creating it on first
    use. *)
val const : t -> bool -> Design.net

(** [add_cell b inst_name cell_name conns] instantiates a library cell.
    Raises [Invalid_argument] if the cell or one of its pins is unknown,
    or a pin is connected twice. *)
val add_cell : t -> string -> string -> (string * Design.net) list -> Design.inst

(** [has_pin pin conns]: [conns] connects [pin]. *)
val has_pin : string -> (string * Design.net) list -> bool

(** Like {!add_cell} but with an already-resolved cell. *)
val add_instance : t -> string -> Cell_lib.Cell.t -> (string * Design.net) list -> Design.inst

(** Number of instances added so far (useful for generating names). *)
val size : t -> int

(** Validate and produce the immutable design.
    Raises [Invalid_argument] on multiply-driven nets. *)
val freeze : t -> Design.t
