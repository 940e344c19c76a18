let render design ~toggles ~duration =
  let nets =
    List.init (Netlist.Design.num_nets design) Fun.id
    |> List.stable_sort (fun a b -> compare toggles.(b) toggles.(a))
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "(SAIFILE\n (SAIFVERSION \"2.0\")\n (DIRECTION \"backward\")\n";
  add " (DURATION %d)\n (INSTANCE %s\n  (NET\n" duration
    (Vcd.sanitize design.Netlist.Design.design_name);
  List.iter
    (fun net ->
      add "   (%s (TC %d))\n"
        (Vcd.sanitize (Netlist.Design.net_name design net))
        toggles.(net))
    nets;
  add "  )\n )\n)\n";
  Buffer.contents buf
