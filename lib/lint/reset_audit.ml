module Design = Netlist.Design
module D = Lint_core.Diagnostic

let reset_pin_of c =
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Flip_flop { reset_pin; _ }
  | Cell_lib.Cell.Latch { reset_pin; _ } -> reset_pin
  | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ -> None

let has_reset d i =
  match reset_pin_of (Design.cell d i) with
  | None -> false
  | Some pin -> Design.pin_net_opt d i pin <> None

let run d =
  Obs.span "lint.reset_audit" @@ fun () ->
  let seqs = Design.sequential_insts d in
  if seqs = [] then []
  else if not (List.exists (has_reset d) seqs) then
    [ D.make ~rule:"RST-001" ~severity:D.Info
        "design has no resettable register: every register powers up \
         unknown and must be initialised externally" ]
  else begin
    (* definedness fixed point: a net is defined when its value after
       reset release does not depend on unreset state *)
    let defined = Array.make (Design.num_nets d) false in
    let mark n = if not defined.(n) then (defined.(n) <- true; true) else false in
    Array.iteri
      (fun n dr ->
        match dr with
        | Design.Driven_const _ | Design.Driven_by_input _ -> defined.(n) <- true
        | Design.Driven_by _ | Design.Undriven -> ignore n)
      d.Design.net_driver;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun i ->
          let c = Design.cell d i in
          let inputs_defined nets = List.for_all (fun n -> defined.(n)) nets in
          let outputs_definable =
            match c.Cell_lib.Cell.kind with
            | Cell_lib.Cell.Combinational ->
              inputs_defined (Design.input_nets d i)
            | Cell_lib.Cell.Clock_gate _ ->
              inputs_defined (Design.input_nets d i)
            | Cell_lib.Cell.Flip_flop _ | Cell_lib.Cell.Latch _ ->
              has_reset d i
              || (match Design.data_net_of d i with
                  | Some dn -> defined.(dn)
                  | None -> false)
          in
          if outputs_definable then
            List.iter
              (fun n -> if mark n then changed := true)
              (Design.output_nets d i))
        (Design.insts d)
    done;
    List.filter_map
      (fun i ->
        let q_defined =
          has_reset d i
          || (match Design.data_net_of d i with
              | Some dn -> defined.(dn)
              | None -> false)
        in
        if q_defined then None
        else
          Some
            (D.makef ~rule:"RST-002" ~severity:D.Warning
               ~loc:(D.Object (Design.inst_name d i))
               "register %s has no reset and its data cone depends on \
                unreset state: it may hold X indefinitely after reset"
               (Design.inst_name d i)))
      seqs
  end
