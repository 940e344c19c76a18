(* Clock-gating styles (the paper's Figs. 2 and 3).

   Part 1 contrasts the two ways RTL expresses a conditionally-loaded
   register (Fig. 2): a recirculating mux ("enabled clock") gives every
   flip-flop a combinational self-loop that blocks single-latch
   conversion, while an integrated clock gate ("gated clock") leaves the
   flip-flops free — which is why the paper's flow synthesizes with the
   gated-clock style preferred.

   Part 2 demonstrates the p2 clock gate with the M1 modification
   (Fig. 3): its enable is captured by the p3 phase instead of an
   internal inverter, and the gated p2 pulses exactly on the cycles whose
   enable was active — glitch-free.

   Run with: dune exec examples/clock_gating_styles.exe *)

let library = Cell_lib.Default_library.library ()

let bank_design ~gated =
  let b =
    Netlist.Builder.create
      ~name:(if gated then "gated_bank" else "enabled_bank")
      ~library
  in
  let clk = Netlist.Builder.add_input ~clock:true b "clk" in
  let en = Netlist.Builder.add_input b "en" in
  let width = 16 in
  (* each input feeds several register bits, so latching an input port is
     cheaper than pairing the registers it feeds *)
  let inputs =
    List.init (width / 4) (fun k -> Netlist.Builder.add_input b (Printf.sprintf "d%d" k))
  in
  let data = List.init width (fun k -> List.nth inputs (k mod (width / 4))) in
  let gck =
    if gated then begin
      let g = Netlist.Builder.fresh_net b "gck" in
      ignore
        (Netlist.Builder.add_cell b "icg" "ICG_X1"
           [("CK", clk); ("EN", en); ("GCK", g)]);
      g
    end
    else clk
  in
  let qs =
    List.mapi
      (fun k din ->
        let q = Netlist.Builder.fresh_net b (Printf.sprintf "q%d" k) in
        let d_in =
          if gated then din
          else
            (* Fig. 2(a): recirculate the old value through a mux *)
            Netlist.Gates.mux2 b ~sel:en ~a:q ~b_in:din
              ~prefix:(Printf.sprintf "m%d" k)
        in
        ignore
          (Netlist.Builder.add_cell b (Printf.sprintf "r%d" k) "DFF_X1"
             [("CK", gck); ("D", d_in); ("Q", q)]);
        q)
      data
  in
  (* two downstream ranks: the forced pairs of style (a) block the
     alternating-rank optimum that style (b) reaches *)
  let qarr = Array.of_list qs in
  let qs2 =
    List.mapi
      (fun k _ ->
        let x = Netlist.Gates.emit_fresh b Netlist.Gates.Xor
            [qarr.(k); qarr.((k + 1) mod width)] ~prefix:(Printf.sprintf "s%d" k) in
        let q2 = Netlist.Builder.fresh_net b (Printf.sprintf "p%d" k) in
        ignore (Netlist.Builder.add_cell b (Printf.sprintf "r2_%d" k) "DFF_X1"
                  [("CK", clk); ("D", x); ("Q", q2)]);
        q2)
      data
  in
  let qarr2 = Array.of_list qs2 in
  List.iteri
    (fun k _ ->
      let x = Netlist.Gates.emit_fresh b Netlist.Gates.Xnor
          [qarr2.(k); qarr2.((k + 2) mod width)] ~prefix:(Printf.sprintf "t%d" k) in
      let q3 = Netlist.Builder.fresh_net b (Printf.sprintf "u%d" k) in
      ignore (Netlist.Builder.add_cell b (Printf.sprintf "r3_%d" k) "DFF_X1"
                [("CK", clk); ("D", x); ("Q", q3)]);
      Netlist.Builder.add_output b (Printf.sprintf "y%d" k) q3)
    qs2;
  Netlist.Builder.freeze b

let part1 () =
  print_endline "-- Fig. 2: enabled clock vs gated clock --";
  List.iter
    (fun gated ->
      let d = bank_design ~gated in
      let asg = Phase3.Assignment.solve d in
      let g = asg.Phase3.Assignment.graph in
      Printf.printf "%-22s self-loops %2d/%d -> 3-phase latches %d (inserted %d)\n"
        (if gated then "gated clock (2b):" else "enabled clock (2a):")
        (Netlist.Ff_graph.self_loop_count g)
        (Netlist.Ff_graph.size g)
        (Phase3.Assignment.total_latches asg)
        asg.Phase3.Assignment.inserted_latches)
    [false; true]

let part2 () =
  print_endline "\n-- Fig. 3: the p2 clock gate (M1 style) under simulation --";
  print_string (Report.Table.render (Experiments.Tables.fig3 ()))

let () =
  part1 ();
  part2 ()
