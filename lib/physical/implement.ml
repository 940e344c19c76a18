type t = {
  design : Netlist.Design.t;
  placement : Placement.t;
  clock_tree : Clock_tree.t;
  wire : Netlist.Design.net -> float;
  total_wirelength : float;
  cell_area : float;
  total_area : float;
}

let run d =
  Obs.span "physical.implement" @@ fun () ->
  let placement = Obs.span "physical.place" (fun () -> Placement.place d) in
  let clock_tree =
    Obs.span "physical.cts" (fun () -> Clock_tree.synthesize d placement)
  in
  let tech = Cell_lib.Library.tech d.Netlist.Design.library in
  let wire net =
    Placement.net_hpwl d placement net *. tech.Cell_lib.Tech.wire_cap_per_um
  in
  let cell_area =
    Netlist.Design.fold_insts
      (fun i acc -> acc +. (Netlist.Design.cell d i).Cell_lib.Cell.area)
      d 0.0
  in
  Obs.count "physical.clock_buffers" clock_tree.Clock_tree.total_buffers;
  { design = d;
    placement;
    clock_tree;
    wire;
    total_wirelength = Placement.total_wirelength d placement;
    cell_area;
    total_area = cell_area +. clock_tree.Clock_tree.total_area }
