module Design = Netlist.Design
module Builder = Netlist.Builder

let hold_margin = 0.02 +. 0.08

let convert d =
  let lib = d.Design.library in
  let b = Builder.create ~name:(d.Design.design_name ^ "_pl") ~library:lib in
  let platch = Cell_lib.Library.find_exn lib "PLATCH_X1" in
  let platch_r = Cell_lib.Library.find_exn lib "PLATCHR_X1" in
  let net_map = Array.make (Design.num_nets d) (-1) in
  List.iter
    (fun (port, net) ->
      net_map.(net) <- Builder.add_input ~clock:(Design.is_clock_port d port) b port)
    d.Design.primary_inputs;
  Array.iteri
    (fun n drv ->
      match drv with
      | Design.Driven_const v -> net_map.(n) <- Builder.const b v
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ())
    d.Design.net_driver;
  let map_net old =
    if net_map.(old) < 0 then net_map.(old) <- Builder.fresh_net b (Design.net_name d old);
    net_map.(old)
  in
  Design.fold_insts
    (fun i () ->
      let c = Design.cell d i in
      let mapped_conns () =
        Array.to_list d.Design.inst_conns.(i)
        |> List.map (fun (pin, n) -> (pin, map_net n))
      in
      match c.Cell_lib.Cell.kind with
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ ->
        ignore (Builder.add_instance b (Design.inst_name d i) c (mapped_conns ()))
      | Cell_lib.Cell.Latch _ ->
        invalid_arg
          (Printf.sprintf "Pulsed_latch: design already contains latch %s"
             (Design.inst_name d i))
      | Cell_lib.Cell.Flip_flop { clock_pin; data_pin; edge = _; reset_pin } ->
        let ck = map_net (Design.pin_net d i clock_pin) in
        let dnet = map_net (Design.pin_net d i data_pin) in
        let q =
          match Design.q_net_of d i with
          | Some q -> map_net q
          | None -> assert false
        in
        (match reset_pin with
         | None ->
           ignore
             (Builder.add_instance b (Design.inst_name d i) platch
                [("CK", ck); ("D", dnet); ("Q", q)])
         | Some rp ->
           let rn = map_net (Design.pin_net d i rp) in
           ignore
             (Builder.add_instance b (Design.inst_name d i) platch_r
                [("CK", ck); ("D", dnet); ("Q", q); ("RN", rn)])))
    d ();
  List.iter
    (fun (port, net) -> Builder.add_output b port (map_net net))
    d.Design.primary_outputs;
  Builder.freeze b
