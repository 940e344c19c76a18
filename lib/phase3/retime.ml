module Design = Netlist.Design

type stats = {
  moves : int;
  passes : int;
  latches_before : int;
  latches_after : int;
}

type direction = Forward | Backward

type move = {
  direction : direction;
  gate : Design.inst;
  latches : Design.inst list;   (* the movable latches absorbed by the move *)
  enable : Design.net;          (* their common enable net *)
  reset : Design.net option;    (* their common reset net, if any *)
}

let latch_nets d i =
  match (Design.cell d i).Cell_lib.Cell.kind with
  | Cell_lib.Cell.Latch { enable_pin; data_pin; reset_pin; _ } ->
    Some
      (Design.pin_net d i enable_pin,
       Design.pin_net d i data_pin,
       (match Design.q_net_of d i with Some q -> q | None -> raise Not_found),
       Option.map (Design.pin_net d i) reset_pin)
  | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
  | Cell_lib.Cell.Clock_gate _ -> None

let is_po_net d net =
  List.exists (fun (_, n) -> n = net) d.Design.primary_outputs

(* A latch is absorbable by gate [g] when it is an inserted p2 latch whose
   only reader is [g] and whose output is not a primary output. *)
let absorbable d g net =
  match d.Design.net_driver.(net) with
  | Design.Driven_by (l, _) when Convert.is_inserted_p2 d l ->
    (match d.Design.net_sinks.(net) with
     | [(g', _)] when g' = g && not (is_po_net d net) -> Some l
     | [] | [_] | _ :: _ :: _ -> None)
  | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
  | Design.Undriven -> None

(* Identify a legal forward move across gate [g]: every input is either a
   constant or the output of an absorbable latch; all latches agree on
   enable and reset. *)
let move_candidate d g =
  let c = Design.cell d g in
  if c.Cell_lib.Cell.kind <> Cell_lib.Cell.Combinational then None
  else
    let inputs = Design.input_nets d g in
    let rec gather latches = function
      | [] -> Some (List.rev latches)
      | net :: rest ->
        (match d.Design.net_driver.(net) with
         | Design.Driven_const _ -> gather latches rest
         | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven ->
           (match absorbable d g net with
            | Some l -> gather (l :: latches) rest
            | None -> None))
    in
    match gather [] inputs with
    | None | Some [] -> None
    | Some (first :: _ as latches) ->
      (match latch_nets d first with
       | None -> None
       | Some (en0, _, _, rn0) ->
         let consistent =
           List.for_all
             (fun l ->
               match latch_nets d l with
               | Some (en, _, _, rn) -> en = en0 && rn = rn0
               | None -> false)
             latches
         in
         let output_ok =
           match Design.output_nets d g with
           | [_] -> true
           | [] | _ :: _ :: _ -> false
         in
         if consistent && output_ok then
           Some { direction = Forward; gate = g; latches; enable = en0;
                  reset = rn0 }
         else None)

(* A backward move pulls one latch from a gate's output to all of its
   inputs: legal when the latch is the gate's only reader and every gate
   input tolerates a latch (is not a constant-only or clock net).  The
   latch count grows by (inputs - 1) — the duplication cost of backward
   retiming. *)
let backward_candidate d l =
  if not (Convert.is_inserted_p2 d l) then None
  else
    match latch_nets d l with
    | None -> None
    | Some (en, dn, qn, rn) ->
      ignore qn;
      (match d.Design.net_driver.(dn) with
       | Design.Driven_by (g, _)
         when (Design.cell d g).Cell_lib.Cell.kind = Cell_lib.Cell.Combinational ->
         let sole_reader =
           match d.Design.net_sinks.(dn) with
           | [(l', _)] -> l' = l && not (is_po_net d dn)
           | [] | _ :: _ :: _ -> false
         in
         let inputs_ok =
           List.for_all
             (fun net ->
               match d.Design.net_driver.(net) with
               | Design.Driven_by _ | Design.Driven_by_input _ -> true
               | Design.Driven_const _ -> true
               | Design.Undriven -> false)
             (Design.input_nets d g)
         in
         let output_ok =
           match Design.output_nets d g with
           | [_] -> true
           | [] | _ :: _ :: _ -> false
         in
         if sole_reader && inputs_ok && output_ok then
           Some { direction = Backward; gate = g; latches = [l]; enable = en;
                  reset = rn }
         else None
       | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
       | Design.Undriven -> None)

let gate_out d g =
  match Design.output_nets d g with
  | [n] -> n
  | [] | _ :: _ :: _ -> assert false

(* Cost of the max-balanced halves before/after a candidate move. *)
let improves (graph : Sta.Graph.t) forward backward m =
  let d = graph.design in
  let d_g = graph.delay_max.(m.gate) in
  match m.direction with
  | Forward ->
    let din_max, cur_cost =
      List.fold_left
        (fun (dmx, cost) l ->
          match latch_nets d l with
          | Some (_, dn, qn, _) ->
            let din = Float.max 0.0 forward.(dn) in
            let dout = Float.max 0.0 backward.(qn) in
            (Float.max dmx din, Float.max cost (Float.max din dout))
          | None -> (dmx, cost))
        (0.0, 0.0) m.latches
    in
    let out = gate_out d m.gate in
    let new_cost =
      Float.max (din_max +. d_g) (Float.max 0.0 backward.(out))
    in
    new_cost < cur_cost -. 1e-9
  | Backward ->
    (match m.latches with
     | [l] ->
       (match latch_nets d l with
        | Some (_, dn, qn, _) ->
          let din = Float.max 0.0 forward.(dn) in
          let dout = Float.max 0.0 backward.(qn) in
          let cur_cost = Float.max din dout in
          (* after the move the gate evaluates after the latch *)
          let new_din = Float.max 0.0 (din -. d_g) in
          let new_cost = Float.max new_din (dout +. d_g) in
          new_cost < cur_cost -. 1e-9
        | None -> false)
     | [] | _ :: _ :: _ -> false)

let count_latches d =
  List.length
    (List.filter (fun i -> Cell_lib.Cell.is_latch (Design.cell d i)) (Design.insts d))

let apply_moves d moves =
  let rw = Netlist.Rewrite.start d in
  let moved_latches = Hashtbl.create 64 in
  let moved_gates = Hashtbl.create 64 in
  List.iter
    (fun m ->
      Hashtbl.replace moved_gates m.gate m;
      List.iter (fun l -> Hashtbl.replace moved_latches l ()) m.latches)
    moves;
  let lib = d.Design.library in
  let latch_cell = Cell_lib.Library.latch lib ~transparent:Cell_lib.Cell.Active_high in
  let latch_r_cell =
    Cell_lib.Library.latch_with_reset lib ~transparent:Cell_lib.Cell.Active_high
  in
  Design.fold_insts
    (fun i () ->
      if Hashtbl.mem moved_latches i then ()
      else
        match Hashtbl.find_opt moved_gates i with
        | None -> Netlist.Rewrite.copy_inst rw i
        | Some ({ direction = Backward; _ } as m) ->
          (* one latch per gate input; the gate then drives the old Q *)
          let b = Netlist.Rewrite.builder rw in
          let l = match m.latches with [l] -> l | _ -> assert false in
          let old_q =
            match latch_nets d l with
            | Some (_, _, qn, _) -> qn
            | None -> assert false
          in
          let cell, extra =
            match m.reset with
            | None ->
              (Cell_lib.Library.latch d.Design.library
                 ~transparent:Cell_lib.Cell.Active_high, [])
            | Some rn ->
              (Cell_lib.Library.latch_with_reset d.Design.library
                 ~transparent:Cell_lib.Cell.Active_high,
               [("RN", Netlist.Rewrite.map_net rw rn)])
          in
          let override =
            List.mapi
              (fun k (pin, net) ->
                match Cell_lib.Cell.find_pin (Design.cell d i) pin with
                | Some p when p.Cell_lib.Cell.direction = Cell_lib.Cell.Input ->
                  (match d.Design.net_driver.(net) with
                   | Design.Driven_const _ -> None  (* constants stay bare *)
                   | Design.Driven_by _ | Design.Driven_by_input _
                   | Design.Undriven ->
                     let w =
                       Netlist.Builder.fresh_net b
                         (Printf.sprintf "%s_bwd%d" (Design.inst_name d i) k)
                     in
                     ignore
                       (Netlist.Builder.add_instance b
                          (Printf.sprintf "%s_bwd%d%s" (Design.inst_name d i) k
                             Convert.p2_suffix)
                          cell
                          (extra
                           @ [("E", Netlist.Rewrite.map_net rw m.enable);
                              ("D", Netlist.Rewrite.map_net rw net); ("Q", w)]));
                     Some (pin, w))
                | Some _ | None -> None)
              (Array.to_list d.Design.inst_conns.(i))
            |> List.filter_map Fun.id
          in
          let out_pin =
            match Cell_lib.Cell.output_pins (Design.cell d i) with
            | [p] -> p.Cell_lib.Cell.pin_name
            | [] | _ :: _ :: _ -> assert false
          in
          Netlist.Rewrite.copy_inst
            ~override:((out_pin, Netlist.Rewrite.map_net rw old_q) :: override)
            rw i
        | Some ({ direction = Forward; _ } as m) ->
          (* the gate now reads the latches' data nets and drives a fresh
             net, latched by a single new p2 latch onto the old output *)
          let b = Netlist.Rewrite.builder rw in
          let override =
            List.filter_map
              (fun (pin, net) ->
                match d.Design.net_driver.(net) with
                | Design.Driven_by (l, _) when Hashtbl.mem moved_latches l ->
                  (match latch_nets d l with
                   | Some (_, dn, _, _) -> Some (pin, Netlist.Rewrite.map_net rw dn)
                   | None -> None)
                | Design.Driven_by _ | Design.Driven_by_input _
                | Design.Driven_const _ | Design.Undriven -> None)
              (Array.to_list d.Design.inst_conns.(i))
          in
          let w = Netlist.Builder.fresh_net b (Design.inst_name d i ^ "_pre") in
          let out_pin =
            match Cell_lib.Cell.output_pins (Design.cell d i) with
            | [p] -> p.Cell_lib.Cell.pin_name
            | [] | _ :: _ :: _ -> assert false
          in
          Netlist.Rewrite.copy_inst ~override:((out_pin, w) :: override) rw i;
          let old_out = gate_out d i in
          let conns =
            [("E", Netlist.Rewrite.map_net rw m.enable); ("D", w);
             ("Q", Netlist.Rewrite.map_net rw old_out)]
          in
          let cell, conns =
            match m.reset with
            | None -> latch_cell, conns
            | Some rn -> latch_r_cell, ("RN", Netlist.Rewrite.map_net rw rn) :: conns
          in
          ignore
            (Netlist.Builder.add_instance b
               (Design.inst_name d i ^ Convert.p2_suffix) cell conns))
    d ();
  Netlist.Rewrite.finish rw

(* Retiming must preserve the reset state: latches reset to 0, so the
   involved nets' all-zero-state values must be 0 (the classic
   initial-state computation, restricted to the moves that need no new
   reset value).  Forward: the absorbed gate's output must be 0.
   Backward: additionally every non-constant gate input must be 0, since
   a fresh latch is placed on each. *)
let preserves_reset init m d =
  let zero net =
    Sim.Logic.equal (Sim.Init_state.net_value init net) Sim.Logic.L0
  in
  let out_ok =
    match Design.output_nets d m.gate with
    | [out] -> zero out
    | [] | _ :: _ :: _ -> false
  in
  match m.direction with
  | Forward -> out_ok
  | Backward ->
    out_ok
    && List.for_all
         (fun net ->
           match d.Design.net_driver.(net) with
           | Design.Driven_const _ -> true
           | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven ->
             zero net)
         (Design.input_nets d m.gate)

let max_passes = 50

let run d0 =
  let latches_before = count_latches d0 in
  let rec loop d pass moves_total =
    if pass >= max_passes then (d, pass, moves_total)
    else begin
      let graph = Sta.Graph.create d in
      let forward = Sta.Paths.forward_arrivals graph in
      let backward =
        Sta.Graph.backward graph (List.map snd (Sta.Paths.sinks d))
      in
      let init = Sim.Init_state.create d in
      let fwd_moves =
        List.filter_map
          (fun g ->
            match move_candidate d g with
            | Some m when improves graph forward backward m
                       && preserves_reset init m d -> Some m
            | Some _ | None -> None)
          (Design.insts d)
      in
      let consumed = Hashtbl.create 64 in
      List.iter
        (fun m ->
          Hashtbl.replace consumed m.gate ();
          List.iter (fun l -> Hashtbl.replace consumed l ()) m.latches)
        fwd_moves;
      let bwd_moves =
        List.filter_map
          (fun l ->
            if Hashtbl.mem consumed l then None
            else
              match backward_candidate d l with
              | Some m
                when (not (Hashtbl.mem consumed m.gate))
                  && improves graph forward backward m
                  && preserves_reset init m d ->
                Hashtbl.replace consumed m.gate ();
                Some m
              | Some _ | None -> None)
          (Design.insts d)
      in
      let moves = fwd_moves @ bwd_moves in
      if moves = [] then (d, pass, moves_total)
      else loop (apply_moves d moves) (pass + 1) (moves_total + List.length moves)
    end
  in
  let d, passes, moves = loop d0 0 0 in
  (d, { moves; passes; latches_before; latches_after = count_latches d })
