(** Critical-path reporting in the style of a timing tool's
    [report_timing]: the N worst combinational paths, traced cell by cell
    from their launching register (or input port) to the capturing
    register's data pin (or output port). *)

type step = {
  inst : Netlist.Design.inst;
  cell : string;
  through : string;         (** output net name *)
  delay : float;            (** this cell's contribution, ns *)
  arrival : float;          (** cumulative, ns *)
}

type path = {
  startpoint : string;      (** launching register/port name *)
  endpoint : Paths.endpoint;  (** capturing register's data pin or output port *)
  total_delay : float;      (** combinational delay, excl. clk->q *)
  steps : step list;        (** launch to capture order *)
}

(** [worst_paths ?count d] — the [count] (default 5) endpoints with the
    largest combinational arrival, each with its traced path. *)
val worst_paths : ?count:int -> Netlist.Design.t -> path list

val pp_path : Netlist.Design.t -> Format.formatter -> path -> unit

val pp : Netlist.Design.t -> Format.formatter -> path list -> unit
