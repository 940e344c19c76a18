module Design = Netlist.Design

type endpoint =
  | Reg of Design.inst
  | Port of string

type path = {
  src : endpoint;
  dst : endpoint;
  max_delay : float;
  min_delay : float;
}

(* each register's output (its first output net, in instance order),
   then each non-clock input port *)
let sources (g : Graph.t) =
  let d = g.design in
  let acc =
    ref
      (List.filter_map
         (fun (p, net) -> if Design.is_clock_port d p then None else Some (Port p, net))
         d.Design.primary_inputs)
  in
  for i = Design.num_insts d - 1 downto 0 do
    if Cell_lib.Cell.is_sequential (Design.cell d i) && g.outputs.(i) <> [||] then
      acc := (Reg i, g.outputs.(i).(0)) :: !acc
  done;
  !acc

let sinks d =
  List.filter_map
    (fun i -> Option.map (fun dn -> (Reg i, dn)) (Design.data_net_of d i))
    (Design.sequential_insts d)
  @ List.map (fun (p, net) -> (Port p, net)) d.Design.primary_outputs

let compute g =
  Obs.span "sta.paths.compute" @@ fun () ->
  let d = g.Graph.design in
  let n_nets = Design.num_nets d and order = g.Graph.order in
  (* a combinational instance's topological rank; -1 where a cone stops *)
  let rank = Array.make (Design.num_insts d) (-1) in
  Array.iteri (fun r i -> rank.(i) <- r) order;
  let dst = Array.of_list (sinks d) in
  let dst_at = Array.make n_nets [] in
  Array.iteri (fun k (_, net) -> dst_at.(net) <- k :: dst_at.(net)) dst;
  (* one pair of arrival arrays for every source: outside the current
     cone they hold neg_infinity / infinity, as a fresh sweep's do *)
  let amax = Array.make n_nets Float.neg_infinity in
  let amin = Array.make n_nets Float.infinity in
  (* per source: the nets reached (in reach order, which makes the array
     the walk's queue too), the ranks of the instances entered and the
     sinks met; [*_seen] holds the index of the last source to visit *)
  let touched = Array.make n_nets 0 and n_touched = ref 0 in
  let cone = Array.make (Array.length order) 0 and n_cone = ref 0 in
  let hits = Array.make (Array.length dst) 0 and n_hits = ref 0 in
  let net_seen = Array.make n_nets (-1) in
  let inst_seen = Array.make (Design.num_insts d) (-1) in
  (* the source being walked, read by walk steps allocated once *)
  let s = ref 0 in
  let touch net =
    if net_seen.(net) <> !s then begin
      net_seen.(net) <- !s;
      touched.(!n_touched) <- net;
      incr n_touched
    end
  in
  let enter (i, _) =
    if rank.(i) >= 0 && inst_seen.(i) <> !s then begin
      inst_seen.(i) <- !s;
      cone.(!n_cone) <- rank.(i);
      incr n_cone;
      Array.iter touch g.Graph.outputs.(i)
    end
  in
  let hit k = hits.(!n_hits) <- k; incr n_hits in
  let relaxations = ref 0 and paths = ref [] in
  List.iter
    (fun (src, src_net) ->
      n_touched := 0;
      n_cone := 0;
      n_hits := 0;
      touch src_net;
      let head = ref 0 in
      while !head < !n_touched do
        let net = touched.(!head) in
        incr head;
        List.iter enter d.Design.net_sinks.(net);
        List.iter hit dst_at.(net)
      done;
      amax.(src_net) <- 0.0;
      amin.(src_net) <- 0.0;
      let ranks = Array.sub cone 0 !n_cone in
      Array.sort Int.compare ranks;
      for r = 0 to !n_cone - 1 do Graph.relax g amax amin order.(ranks.(r)) done;
      relaxations := !relaxations + !n_cone;
      (* sinks in [sinks] order, each prepended: the list a sink scan
         per source builds *)
      let ks = Array.sub hits 0 !n_hits in
      Array.sort Int.compare ks;
      for h = 0 to !n_hits - 1 do
        let dst, net = dst.(ks.(h)) in
        if amax.(net) > Float.neg_infinity then
          paths :=
            { src; dst; max_delay = amax.(net); min_delay = amin.(net) }
            :: !paths
      done;
      for t = 0 to !n_touched - 1 do
        amax.(touched.(t)) <- Float.neg_infinity;
        amin.(touched.(t)) <- Float.infinity
      done;
      incr s)
    (sources g);
  Obs.count "sta.paths.relaxations" !relaxations;
  Obs.count "sta.paths.arcs" (List.length !paths);
  !paths

let forward_arrivals g = fst (Graph.forward g (List.map snd (sources g)))
