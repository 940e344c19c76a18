module Design = Netlist.Design

type t = {
  design : Design.t;
  inputs : Design.net array array;
  outputs : Design.net array array;
  delay_max : float array;
  delay_min : float array;
  order : Design.inst array;
}

let create d =
  Obs.span "sta.graph.create" @@ fun () ->
  let order = Array.of_list (Netlist.Traverse.comb_topo_exn d) in
  let n = Design.num_insts d in
  let inputs = Array.init n (fun i -> Array.of_list (Design.input_nets d i)) in
  let outputs = Array.init n (fun i -> Array.of_list (Design.output_nets d i)) in
  let net_load net =
    List.fold_left
      (fun acc (i, pin) ->
        match Cell_lib.Cell.find_pin (Design.cell d i) pin with
        | Some p -> acc +. p.Cell_lib.Cell.capacitance
        | None -> acc)
      0.0 d.Design.net_sinks.(net)
  in
  let load = Array.map (Array.fold_left (fun acc n -> acc +. net_load n) 0.0) outputs in
  let delay f = Array.init n (fun i -> f (Design.cell d i) ~load:load.(i)) in
  { design = d; inputs; outputs;
    delay_max = delay Cell_lib.Cell.delay_through;
    delay_min = delay Cell_lib.Cell.min_delay_through;
    order }

(* loops, not [Array.iter] closures, so the float refs stay unboxed *)
let relax g amax amin i =
  let ins = g.inputs.(i) in
  let in_max = ref Float.neg_infinity and in_min = ref Float.infinity in
  for k = 0 to Array.length ins - 1 do
    in_max := Float.max !in_max amax.(ins.(k));
    in_min := Float.min !in_min amin.(ins.(k))
  done;
  if !in_max > Float.neg_infinity then begin
    let out_max = !in_max +. g.delay_max.(i) in
    let out_min = !in_min +. g.delay_min.(i) in
    let outs = g.outputs.(i) in
    for k = 0 to Array.length outs - 1 do
      let net = outs.(k) in
      amax.(net) <- Float.max amax.(net) out_max;
      amin.(net) <- Float.min amin.(net) out_min
    done
  end

let forward g sources =
  let n = Design.num_nets g.design in
  let amax = Array.make n Float.neg_infinity in
  let amin = Array.make n Float.infinity in
  List.iter (fun net -> amax.(net) <- 0.0; amin.(net) <- 0.0) sources;
  Array.iter (relax g amax amin) g.order;
  (amax, amin)

let backward g sinks =
  let dist = Array.make (Design.num_nets g.design) Float.neg_infinity in
  List.iter (fun net -> dist.(net) <- 0.0) sinks;
  for k = Array.length g.order - 1 downto 0 do
    let i = g.order.(k) in
    let out_best =
      Array.fold_left (fun acc net -> Float.max acc dist.(net))
        Float.neg_infinity g.outputs.(i)
    in
    if out_best > Float.neg_infinity then begin
      let d = out_best +. g.delay_max.(i) in
      Array.iter (fun net -> dist.(net) <- Float.max dist.(net) d) g.inputs.(i)
    end
  done;
  dist
