module Design = Netlist.Design
module Builder = Netlist.Builder
module Rewrite = Netlist.Rewrite

let hold_margin = 0.02 +. 0.08

let convert d =
  let lib = d.Design.library in
  let rw = Rewrite.start ~name:(d.Design.design_name ^ "_pl") d in
  let b = Rewrite.builder rw in
  let map_net = Rewrite.map_net rw in
  let platch = Cell_lib.Library.find_exn lib "PLATCH_X1" in
  let platch_r = Cell_lib.Library.find_exn lib "PLATCHR_X1" in
  Design.fold_insts
    (fun i () ->
      match (Design.cell d i).Cell_lib.Cell.kind with
      | Cell_lib.Cell.Combinational | Cell_lib.Cell.Clock_gate _ ->
        Rewrite.copy_inst rw i
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
  Rewrite.finish rw
