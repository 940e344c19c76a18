module Builder = Netlist.Builder
module Gates = Netlist.Gates

(* Per-bit chains keep the FF graph a disjoint union of paths, so the
   closed-form optimum of Section III-B applies exactly. *)
let make ?(logic_depth = 1) ~width ~stages () =
  let library = Cell_lib.Default_library.library () in
  let b = Builder.create ~name:(Printf.sprintf "linpipe_w%d_s%d" width stages) ~library in
  let clk = Builder.add_input ~clock:true b "clk" in
  let ins = List.init width (fun k -> Builder.add_input b (Printf.sprintf "i%d" k)) in
  let stage s data =
    List.mapi
      (fun k src ->
        (* optional buffer chain models deeper per-stage logic; it sits
           right after the upstream register, where retiming can move the
           inserted latches forward without changing the reset state *)
        let rec deepen src j =
          if j <= 1 then src
          else
            deepen
              (Gates.emit_fresh b Gates.Buf [src]
                 ~prefix:(Printf.sprintf "b_%d_%d_%d" s k j))
              (j - 1)
        in
        let d =
          Gates.emit_fresh b Gates.Not [deepen src logic_depth]
            ~prefix:(Printf.sprintf "n_%d_%d" s k)
        in
        let q = Builder.fresh_net b (Printf.sprintf "q_%d_%d" s k) in
        ignore
          (Builder.add_cell b (Printf.sprintf "r_%d_%d" s k) "DFF_X1"
             [("CK", clk); ("D", d); ("Q", q)]);
        q)
      data
  in
  let rec run s data = if s >= stages then data else run (s + 1) (stage s data) in
  let outs = run 0 ins in
  List.iteri (fun k n -> Builder.add_output b (Printf.sprintf "o%d" k) n) outs;
  Builder.freeze b
