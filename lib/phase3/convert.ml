module Design = Netlist.Design
module Builder = Netlist.Builder

type clock_ports = {
  p1 : string;
  p2 : string;
  p3 : string;
}

let default_ports = { p1 = "p1"; p2 = "p2"; p3 = "p3" }

let p2_suffix = "__p2ins"

let is_inserted_p2 d i = String.ends_with ~suffix:p2_suffix (Design.inst_name d i)

(* a combinational cell whose outputs are all clock nets is a clock
   buffer or inverter: it is not copied, and its pins read no data *)
let on_clock_path (clock : Netlist.Clocking.network) d i =
  match Design.output_nets d i with
  | [] -> false
  | outputs -> List.for_all clock.Netlist.Clocking.has_net outputs

(* the first pin (instances in id order, then the outputs) whose net
   conversion would copy as data although it is a clock net *)
let first_clock_read (clock : Netlist.Clocking.network) d =
  let has_net = clock.Netlist.Clocking.has_net in
  let data_pin i pin =
    match (Design.cell d i).Cell_lib.Cell.kind with
    | Cell_lib.Cell.Combinational -> not (on_clock_path clock d i)
    | Cell_lib.Cell.Flip_flop { clock_pin; _ } -> not (String.equal pin clock_pin)
    | Cell_lib.Cell.Latch { enable_pin; _ } -> not (String.equal pin enable_pin)
    | Cell_lib.Cell.Clock_gate { enable_pin; _ } -> String.equal pin enable_pin
  in
  let reads net what =
    Some
      (Printf.sprintf "data logic reads clock net %s at %s"
         (Design.net_name d net) what)
  in
  let rec scan i k =
    if i >= Design.num_insts d then
      List.find_map
        (fun (port, net) ->
          if has_net net then reads net ("output port " ^ port) else None)
        d.Design.primary_outputs
    else if k >= Array.length d.Design.inst_conns.(i) then scan (i + 1) 0
    else
      let pin, net = d.Design.inst_conns.(i).(k) in
      if has_net net && data_pin i pin then
        reads net (Printf.sprintf "pin %s of %s" pin (Design.inst_name d i))
      else scan i (k + 1)
  in
  scan 0 0

let clock_read d = first_clock_read (Netlist.Clocking.network d) d

let to_three_phase ?(ports = default_ports) d (asg : Assignment.t) =
  let lib = d.Design.library in
  let b = Builder.create ~name:(d.Design.design_name ^ "_3p") ~library:lib in
  let latch_cell = (Cell_lib.Library.latch lib ~transparent:Cell_lib.Cell.Active_high).Cell_lib.Cell.name in
  let latch_r_cell = (Cell_lib.Library.latch_with_reset lib ~transparent:Cell_lib.Cell.Active_high).Cell_lib.Cell.name in
  let icg_cell = (Cell_lib.Library.clock_gate lib ~style:Cell_lib.Cell.Icg_standard).Cell_lib.Cell.name in
  (* the original clock network is not copied *)
  let clock = Netlist.Clocking.network d in
  Option.iter
    (fun msg -> invalid_arg ("Convert: " ^ msg))
    (first_clock_read clock d);
  (* new clock ports *)
  let p1 = Builder.add_input ~clock:true b ports.p1 in
  let p2 = Builder.add_input ~clock:true b ports.p2 in
  let p3 = Builder.add_input ~clock:true b ports.p3 in
  let phase_net = function
    | `P1 -> p1
    | `P2 -> p2
    | `P3 -> p3
  and phase_name = function
    | `P1 -> ports.p1
    | `P2 -> ports.p2
    | `P3 -> ports.p3
  in
  (* net map: old data net -> new net *)
  let net_map = Array.make (Design.num_nets d) (-1) in
  let pi_latched : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace pi_latched p ()) asg.Assignment.pi_latches;
  (* primary inputs: latched inputs route sinks through a p2 latch *)
  List.iter
    (fun (port, net) ->
      if not (Design.is_clock_port d port) then begin
        let port_net = Builder.add_input b port in
        if Hashtbl.mem pi_latched port then begin
          let latched = Builder.fresh_net b (port ^ "_lat") in
          ignore
            (Builder.add_cell b (port ^ p2_suffix) latch_cell
               [("E", p2); ("D", port_net); ("Q", latched)]);
          net_map.(net) <- latched
        end
        else net_map.(net) <- port_net
      end)
    d.Design.primary_inputs;
  (* [clock_read] refused every clock net a data pin reads *)
  let map_net old =
    if net_map.(old) < 0 then
      net_map.(old) <- Builder.fresh_net b (Design.net_name d old);
    net_map.(old)
  in
  (* constants *)
  Array.iteri
    (fun n drv ->
      match drv with
      | Design.Driven_const v -> net_map.(n) <- Builder.const b v
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ())
    d.Design.net_driver;
  (* gated phase nets, memoised per (ICG chain, phase) *)
  let gated : (int list * string, Design.net) Hashtbl.t = Hashtbl.create 16 in
  let rec gated_net chain phase =
    match chain with
    | [] -> phase_net phase
    | _ :: _ ->
      let key = (chain, phase_name phase) in
      (match Hashtbl.find_opt gated key with
       | Some n -> n
       | None ->
         let icg = List.hd (List.rev chain) in
         let upstream = gated_net (List.filter (fun i -> i <> icg) chain) phase in
         let en_old =
           match (Design.cell d icg).Cell_lib.Cell.kind with
           | Cell_lib.Cell.Clock_gate { enable_pin; _ } -> Design.pin_net d icg enable_pin
           | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
           | Cell_lib.Cell.Latch _ -> assert false
         in
         let gck =
           Builder.fresh_net b
             (Printf.sprintf "%s_%s_gck" (Design.inst_name d icg) (phase_name phase))
         in
         ignore
           (Builder.add_cell b
              (Printf.sprintf "%s_%s" (Design.inst_name d icg) (phase_name phase))
              icg_cell
              [("CK", upstream); ("EN", map_net en_old); ("GCK", gck)]);
         Hashtbl.replace gated key gck;
         gck)
  in
  let icg_chain_of i =
    match Design.clock_net_of d i with
    | None -> []
    | Some cn ->
      (match Netlist.Clocking.trace_to_root d cn with
       | None ->
         invalid_arg
           (Printf.sprintf "Convert: clock of %s has no root" (Design.inst_name d i))
       | Some { Netlist.Clocking.elements; _ } ->
         List.filter_map
           (function
             | Netlist.Clocking.Through_icg icg -> Some icg
             | Netlist.Clocking.Through_buffer _ -> None)
           elements)
  in
  (* copy combinational instances (clock buffers excluded) *)
  Design.fold_insts
    (fun i () ->
      let c = Design.cell d i in
      match c.Cell_lib.Cell.kind with
      | Cell_lib.Cell.Combinational when not (on_clock_path clock d i) ->
        let conns =
          Array.to_list d.Design.inst_conns.(i)
          |> List.map (fun (pin, n) -> (pin, map_net n))
        in
        ignore (Builder.add_instance b (Design.inst_name d i) c conns)
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ -> ()
      | Cell_lib.Cell.Latch _ ->
        invalid_arg
          (Printf.sprintf "Convert: design already contains latch %s"
             (Design.inst_name d i))
      | Cell_lib.Cell.Flip_flop _ -> ())
    d ();
  (* replace flip-flops according to the assignment *)
  let g = asg.Assignment.graph in
  Array.iteri
    (fun pos i ->
      let plan = asg.Assignment.plans.(pos) in
      let chain = icg_chain_of i in
      let c = Design.cell d i in
      let data_old =
        match Design.data_net_of d i with
        | Some n -> n
        | None -> assert false
      in
      let q_old =
        match Design.q_net_of d i with
        | Some n -> n
        | None -> assert false
      in
      let rn_conn =
        match c.Cell_lib.Cell.kind with
        | Cell_lib.Cell.Flip_flop { reset_pin = Some rp; _ } ->
          Some ("RN", map_net (Design.pin_net d i rp))
        | Cell_lib.Cell.Flip_flop { reset_pin = None; _ }
        | Cell_lib.Cell.Combinational | Cell_lib.Cell.Latch _
        | Cell_lib.Cell.Clock_gate _ -> None
      in
      let cell_for = match rn_conn with None -> latch_cell | Some _ -> latch_r_cell in
      let with_rn conns = match rn_conn with None -> conns | Some rc -> rc :: conns in
      let first_phase = match plan with
        | Assignment.Single_p1 | Assignment.Pair_p1 -> `P1
        | Assignment.Pair_p3 -> `P3
      in
      let en1 = gated_net chain first_phase in
      (match plan with
       | Assignment.Single_p1 ->
         ignore
           (Builder.add_instance b (Design.inst_name d i)
              (Cell_lib.Library.find_exn lib cell_for)
              (with_rn [("E", en1); ("D", map_net data_old); ("Q", map_net q_old)]))
       | Assignment.Pair_p1 | Assignment.Pair_p3 ->
         let mid = Builder.fresh_net b (Design.inst_name d i ^ "_mid") in
         ignore
           (Builder.add_instance b (Design.inst_name d i)
              (Cell_lib.Library.find_exn lib cell_for)
              (with_rn [("E", en1); ("D", map_net data_old); ("Q", mid)]));
         ignore
           (Builder.add_instance b (Design.inst_name d i ^ p2_suffix)
              (Cell_lib.Library.find_exn lib cell_for)
              (with_rn [("E", p2); ("D", mid); ("Q", map_net q_old)]))))
    g.Netlist.Ff_graph.members;
  (* primary outputs *)
  List.iter
    (fun (port, net) -> Builder.add_output b port (map_net net))
    d.Design.primary_outputs;
  Builder.freeze b
