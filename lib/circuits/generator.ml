module Builder = Netlist.Builder
module Gates = Netlist.Gates

type spec = {
  name : string;
  seed : int;
  inputs : int;
  outputs : int;
  layers : int array;
  fanin : int;
  cone_depth : int;
  self_loop_fraction : float;
  cross_feedback : float;
  reuse : float;
  gated_fraction : float;
  bank_size : int;
  po_cones : int;
  frequency_mhz : float;
}

let num_flip_flops spec = Array.fold_left ( + ) 0 spec.layers

let binary_ops = [Gates.And; Gates.Or; Gates.Xor; Gates.Nand; Gates.Nor; Gates.Xnor]

(* Build a random gate tree over [sources], depth-bounded, reusing
   intermediate nets from [pool] with probability [spec.reuse]. *)
let random_cone rng spec b pool prefix sources =
  let fresh_level nets depth =
    (* pairwise combine until one net remains *)
    let rec combine nets depth =
      match nets with
      | [] -> invalid_arg "random_cone: no sources"
      | [single] -> single
      | _ :: _ :: _ when depth >= spec.cone_depth ->
        (* flatten the rest with one n-ary gate *)
        Gates.emit_fresh b (Rng.pick rng [Gates.And; Gates.Or; Gates.Xor])
          nets ~prefix
      | a :: b' :: rest ->
        let op = Rng.pick rng binary_ops in
        let combined = Gates.emit_fresh b op [a; b'] ~prefix in
        if Rng.chance rng spec.reuse then pool := combined :: !pool;
        combine (rest @ [combined]) (depth + 1)
    in
    combine nets depth
  in
  let sources =
    List.map
      (fun s ->
        if Rng.chance rng 0.15 then Gates.emit_fresh b Gates.Not [s] ~prefix
        else s)
      sources
  in
  fresh_level sources 0

let synthesize spec =
  let library = Cell_lib.Default_library.library () in
  let rng = Rng.create spec.seed in
  let b = Builder.create ~name:spec.name ~library in
  let clk = Builder.add_input ~clock:true b "clk" in
  let pis =
    List.init (max 1 spec.inputs) (fun k -> Builder.add_input b (Printf.sprintf "i%d" k))
  in
  let n_layers = Array.length spec.layers in
  (* pre-create all register output nets so cones can reference any FF *)
  let q_nets =
    Array.mapi
      (fun l count ->
        Array.init count (fun k -> Builder.fresh_net b (Printf.sprintf "q_%d_%d" l k)))
      spec.layers
  in
  (* clock gating banks: registers in each layer are covered left to right *)
  let gated_share l count =
    ignore l;
    int_of_float (Float.round (spec.gated_fraction *. float_of_int count))
  in
  (* enable cones must come from registers (stable within the cycle); use
     the previous layer, or inputs for layer 0 *)
  let enable_sources l =
    if l = 0 || Array.length q_nets.(l - 1) = 0 then pis
    else Array.to_list q_nets.(l - 1)
  in
  let gated_clock_of = Hashtbl.create 64 in  (* (layer, idx) -> net *)
  Array.iteri
    (fun l count ->
      let n_gated = gated_share l count in
      let rec banks start bank =
        if start < n_gated then begin
          let size = min spec.bank_size (n_gated - start) in
          let srcs = enable_sources l in
          let en_srcs =
            List.init (min 2 (List.length srcs)) (fun _ -> Rng.pick rng srcs)
          in
          let en =
            match en_srcs with
            | [] -> Builder.const b true
            | [single] -> single
            | _ :: _ :: _ ->
              Gates.emit_fresh b (Rng.pick rng [Gates.Or; Gates.Nand])
                en_srcs ~prefix:(Printf.sprintf "en_%d_%d" l bank)
          in
          let gck = Builder.fresh_net b (Printf.sprintf "gck_%d_%d" l bank) in
          ignore
            (Builder.add_cell b (Printf.sprintf "icg_%d_%d" l bank) "ICG_X1"
               [("CK", clk); ("EN", en); ("GCK", gck)]);
          for k = start to start + size - 1 do
            Hashtbl.replace gated_clock_of (l, k) gck
          done;
          banks (start + size) (bank + 1)
        end
      in
      banks 0 0)
    spec.layers;
  (* D cones and registers *)
  Array.iteri
    (fun l count ->
      let pool = ref [] in
      let prev_sources =
        if l = 0 then pis else Array.to_list q_nets.(l - 1)
      in
      let prev_sources = if prev_sources = [] then pis else prev_sources in
      for k = 0 to count - 1 do
        let n_src = 1 + Rng.int rng (max 1 spec.fanin) in
        let base =
          List.init n_src (fun _ ->
              if Rng.chance rng spec.reuse && !pool <> [] then Rng.pick rng !pool
              else Rng.pick rng prev_sources)
        in
        let base =
          if Rng.chance rng spec.self_loop_fraction then
            q_nets.(l).(k) :: base
          else base
        in
        let base =
          if Rng.chance rng spec.cross_feedback && n_layers > 0 then begin
            let l2 = Rng.int rng n_layers in
            if Array.length q_nets.(l2) > 0 then
              q_nets.(l2).(Rng.int rng (Array.length q_nets.(l2))) :: base
            else base
          end
          else base
        in
        let dnet =
          match base with
          | [single] ->
            (* keep at least one gate so D is not the raw source *)
            Gates.emit_fresh b Gates.Buf [single] ~prefix:(Printf.sprintf "d_%d_%d" l k)
          | _ :: _ :: _ | [] ->
            random_cone rng spec b pool (Printf.sprintf "d_%d_%d" l k) base
        in
        let ck =
          match Hashtbl.find_opt gated_clock_of (l, k) with
          | Some gck -> gck
          | None -> clk
        in
        ignore
          (Builder.add_cell b (Printf.sprintf "r_%d_%d" l k) "DFF_X1"
             [("CK", ck); ("D", dnet); ("Q", q_nets.(l).(k))])
      done)
    spec.layers;
  (* primary outputs: cones over the last layers plus direct taps *)
  let all_qs = Array.to_list q_nets |> List.concat_map Array.to_list in
  let last_qs =
    if n_layers = 0 || Array.length q_nets.(n_layers - 1) = 0 then all_qs
    else Array.to_list q_nets.(n_layers - 1)
  in
  let last_qs = if last_qs = [] then pis else last_qs in
  let po_pool = ref [] in
  for k = 0 to spec.po_cones - 1 do
    let srcs = List.init (max 2 spec.fanin) (fun _ -> Rng.pick rng last_qs) in
    po_pool :=
      random_cone rng spec b (ref []) (Printf.sprintf "po_cone%d" k) srcs :: !po_pool
  done;
  let taps = !po_pool @ last_qs in
  for k = 0 to max 1 spec.outputs - 1 do
    Builder.add_output b (Printf.sprintf "o%d" k) (List.nth taps (k mod List.length taps))
  done;
  Builder.freeze b

let alternating_layers ~ffs ~n_layers ~ratio =
  let n_layers = max 1 n_layers in
  let weights =
    Array.init n_layers (fun k -> if k mod 2 = 0 then ratio else 1.0 -. ratio)
  in
  let weight_sum = Array.fold_left ( +. ) 0.0 weights in
  let raw = Array.map (fun w -> w /. weight_sum *. float_of_int ffs) weights in
  let layers = Array.map (fun r -> int_of_float (Float.round r)) raw in
  (* fix rounding drift on the widest layer *)
  let diff = ffs - Array.fold_left ( + ) 0 layers in
  if Array.length layers > 0 then layers.(0) <- max 1 (layers.(0) + diff);
  layers
