module Design = Netlist.Design

type breakdown = {
  clock : float;
  seq : float;
  comb : float;
}

let total b = b.clock +. b.seq +. b.comb

type detail = {
  dynamic : breakdown;
  leakage : breakdown;
  overall : breakdown;
}

type group = Clock | Seq | Comb

let add b g v =
  match g with
  | Clock -> { b with clock = b.clock +. v }
  | Seq -> { b with seq = b.seq +. v }
  | Comb -> { b with comb = b.comb +. v }

let zero = { clock = 0.0; seq = 0.0; comb = 0.0 }

(* Zero-delay simulation produces no glitches, but glitch power is a
   large share of combinational dynamic power in silicon and is one of
   the effects the paper credits for latch designs' savings: flip-flops
   launch every cone input on the same edge (maximal arrival races),
   while latch phases spread launches and time borrowing smooths arrival
   skews.  First-order model: combinational switching is scaled by
   [1 + rate * (logic depth - 1)], with [rate] interpolated between the
   edge-triggered and level-sensitive coefficients by the design's
   register mix. *)
let glitch_rate_ff = 0.22

let glitch_rate_latch = 0.08

let glitch_multiplier_cap = 2.5

let run (impl : Physical.Implement.t) ~activity:(toggles, cycles) ~period =
  Obs.span "power.estimate" @@ fun () ->
  let d = impl.Physical.Implement.design in
  if Array.length toggles < Design.num_nets d then
    invalid_arg
      (Printf.sprintf
         "Power.Estimate.run: activity covers %d nets, design has %d"
         (Array.length toggles) (Design.num_nets d));
  let tech = Cell_lib.Library.tech d.Design.library in
  let v2 = tech.Cell_lib.Tech.voltage *. tech.Cell_lib.Tech.voltage in
  let levels = Netlist.Traverse.net_levels d in
  let glitch_rate =
    let ffs = ref 0 and latches = ref 0 in
    Design.fold_insts
      (fun i () ->
        match (Design.cell d i).Cell_lib.Cell.kind with
        | Cell_lib.Cell.Flip_flop _ -> incr ffs
        | Cell_lib.Cell.Latch _ -> incr latches
        | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ -> ())
      d ();
    let total = !ffs + !latches in
    if total = 0 then glitch_rate_latch
    else
      ((glitch_rate_ff *. float_of_int !ffs)
       +. (glitch_rate_latch *. float_of_int !latches))
      /. float_of_int total
  in
  let glitch net =
    Float.min glitch_multiplier_cap
      (1.0 +. (glitch_rate *. float_of_int (Stdlib.max 0 (levels.(net) - 1))))
  in
  (* back-to-back latch pairs abut in placement: a net from one latch
     straight into another latch's data pin carries no routed wire *)
  let is_abutted net =
    (match d.Design.net_driver.(net) with
     | Design.Driven_by (i, _) -> Cell_lib.Cell.is_latch (Design.cell d i)
     | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> false)
    && (match d.Design.net_sinks.(net) with
        | [(j, pin)] ->
          (match (Design.cell d j).Cell_lib.Cell.kind with
           | Cell_lib.Cell.Latch { data_pin; _ } -> String.equal pin data_pin
           | Cell_lib.Cell.Combinational | Cell_lib.Cell.Flip_flop _
           | Cell_lib.Cell.Clock_gate _ -> false)
        | [] | _ :: _ :: _ -> false)
  in
  let on_clock = (Netlist.Clocking.network d).Netlist.Clocking.has_net in
  let pin_cap net =
    List.fold_left
      (fun acc (i, pin) ->
        match Cell_lib.Cell.find_pin (Design.cell d i) pin with
        | Some p -> acc +. p.Cell_lib.Cell.capacitance
        | None -> acc)
      0.0 d.Design.net_sinks.(net)
  in
  let group_of_net net =
    if on_clock net then Clock
    else
      match d.Design.net_driver.(net) with
      | Design.Driven_by (i, _) ->
        let c = Design.cell d i in
        (match c.Cell_lib.Cell.kind with
         | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> Seq
         | Cell_lib.Cell.Clock_gate _ -> Clock
         | Cell_lib.Cell.Combinational -> Comb)
      | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> Comb
  in
  (* net switching energy (fJ over the whole simulation) *)
  let dynamic = ref zero in
  for net = 0 to Design.num_nets d - 1 do
    let t = float_of_int toggles.(net) in
    if t > 0.0 then begin
      let g = group_of_net net in
      let cap =
        (* clock-net routing is covered by the clock-tree model below *)
        if g = Clock then pin_cap net
        else if is_abutted net then pin_cap net
        else pin_cap net +. impl.Physical.Implement.wire net
      in
      let activity_scale = if g = Comb then glitch net else 1.0 in
      dynamic := add !dynamic g (t *. activity_scale *. 0.5 *. cap *. v2)
    end
  done;
  (* per-cell internal energy *)
  Design.fold_insts
    (fun i () ->
      let c = Design.cell d i in
      let e = c.Cell_lib.Cell.internal_energy in
      if e > 0.0 then begin
        match c.Cell_lib.Cell.kind with
        | Cell_lib.Cell.Combinational ->
          let t =
            List.fold_left
              (fun a n -> a +. (float_of_int toggles.(n) *. glitch n))
              0.0 (Design.output_nets d i)
          in
          (* combinational buffers sitting on the clock network belong to
             the clock group *)
          let g =
            match Design.output_nets d i with
            | n :: _ when on_clock n -> Clock
            | _ :: _ | [] -> Comb
          in
          dynamic := add !dynamic g (e *. t)
        | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ ->
          (match Design.clock_net_of d i with
           | Some cn ->
             dynamic := add !dynamic Seq (e *. float_of_int toggles.(cn) /. 2.0)
           | None -> ())
        | Cell_lib.Cell.Clock_gate { clock_pin; _ } ->
          (match Design.pin_net_opt d i clock_pin with
           | Some cn ->
             dynamic := add !dynamic Clock (e *. float_of_int toggles.(cn) /. 2.0)
           | None -> ())
      end)
    d ();
  (* clock-tree wire, buffers and their internal energy *)
  List.iter
    (fun (s : Physical.Clock_tree.subnet) ->
      let t = float_of_int toggles.(s.Physical.Clock_tree.root_net) in
      let cap =
        s.Physical.Clock_tree.wire_cap +. s.Physical.Clock_tree.buffer_cap
      in
      dynamic :=
        add !dynamic Clock
          ((t *. 0.5 *. cap *. v2)
           +. (s.Physical.Clock_tree.buffer_internal_energy *. t /. 2.0)))
    impl.Physical.Implement.clock_tree.Physical.Clock_tree.subnets;
  (* leakage, nW -> mW *)
  let leakage = ref zero in
  Design.fold_insts
    (fun i () ->
      let c = Design.cell d i in
      let g =
        match c.Cell_lib.Cell.kind with
        | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ -> Seq
        | Cell_lib.Cell.Clock_gate _ -> Clock
        | Cell_lib.Cell.Combinational ->
          (match Design.output_nets d i with
           | n :: _ when on_clock n -> Clock
           | _ :: _ | [] -> Comb)
      in
      leakage := add !leakage g (c.Cell_lib.Cell.leakage /. 1.0e6))
    d ();
  List.iter
    (fun (s : Physical.Clock_tree.subnet) ->
      leakage := add !leakage Clock (s.Physical.Clock_tree.buffer_leakage /. 1.0e6))
    impl.Physical.Implement.clock_tree.Physical.Clock_tree.subnets;
  (* fJ over the run -> mW: fJ / (cycles * period ns) = uW; / 1000 = mW *)
  let denom = float_of_int (max 1 cycles) *. period *. 1000.0 in
  let dynamic_mw =
    { clock = !dynamic.clock /. denom;
      seq = !dynamic.seq /. denom;
      comb = !dynamic.comb /. denom }
  in
  let overall =
    { clock = dynamic_mw.clock +. !leakage.clock;
      seq = dynamic_mw.seq +. !leakage.seq;
      comb = dynamic_mw.comb +. !leakage.comb }
  in
  { dynamic = dynamic_mw; leakage = !leakage; overall }

let pp_breakdown ppf b =
  Format.fprintf ppf "clock %.4f mW, seq %.4f mW, comb %.4f mW, total %.4f mW"
    b.clock b.seq b.comb (total b)
