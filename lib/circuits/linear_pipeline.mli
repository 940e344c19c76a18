(** The linear pipelines of the paper's Fig. 1: [width]-bit data flowing
    through [stages] ranks of flip-flops with a thin layer of logic
    between ranks and no feedback anywhere.  Each bit is an independent
    chain, so the closed-form optimum of Section III-B
    ({!Phase3.Pipeline} in this project) applies exactly.  The design
    uses the default library. *)

val make :
  ?logic_depth:int -> width:int -> stages:int -> unit -> Netlist.Design.t
