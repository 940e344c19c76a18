module Design = Netlist.Design
module Builder = Netlist.Builder
module Rewrite = Netlist.Rewrite

let convert d =
  let lib = d.Design.library in
  let rw = Rewrite.start ~name:(d.Design.design_name ^ "_ms") d in
  let b = Rewrite.builder rw in
  let map_net = Rewrite.map_net rw in
  let lat_hi = Cell_lib.Library.latch lib ~transparent:Cell_lib.Cell.Active_high in
  let lat_hi_r = Cell_lib.Library.latch_with_reset lib ~transparent:Cell_lib.Cell.Active_high in
  let lat_lo = Cell_lib.Library.latch lib ~transparent:Cell_lib.Cell.Active_low in
  let lat_lo_r =
    Cell_lib.Library.latch_with_reset lib ~transparent:Cell_lib.Cell.Active_low
  in
  Design.fold_insts
    (fun i () ->
      match (Design.cell d i).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ ->
        Rewrite.copy_inst rw i
      | Cell_lib.Cell.Latch _ ->
        invalid_arg
          (Printf.sprintf "Master_slave: design already contains latch %s"
             (Design.inst_name d i))
      | Cell_lib.Cell.Flip_flop { clock_pin; data_pin; edge = _; reset_pin } ->
        let ck = map_net (Design.pin_net d i clock_pin) in
        let dnet = map_net (Design.pin_net d i data_pin) in
        let q =
          match Design.q_net_of d i with
          | Some q -> map_net q
          | None -> assert false
        in
        let mid = Builder.fresh_net b (Design.inst_name d i ^ "_mid") in
        (* an asynchronous clear resets both internal latches, exactly as
           inside the flip-flop it replaces *)
        (match reset_pin with
         | None ->
           ignore
             (Builder.add_instance b (Design.inst_name d i ^ "_master") lat_lo
                [("E", ck); ("D", dnet); ("Q", mid)]);
           ignore
             (Builder.add_instance b (Design.inst_name d i ^ "_slave") lat_hi
                [("E", ck); ("D", mid); ("Q", q)])
         | Some rp ->
           let rn = map_net (Design.pin_net d i rp) in
           ignore
             (Builder.add_instance b (Design.inst_name d i ^ "_master") lat_lo_r
                [("E", ck); ("D", dnet); ("Q", mid); ("RN", rn)]);
           ignore
             (Builder.add_instance b (Design.inst_name d i ^ "_slave") lat_hi_r
                [("E", ck); ("D", mid); ("Q", q); ("RN", rn)])))
    d ();
  Rewrite.finish rw
