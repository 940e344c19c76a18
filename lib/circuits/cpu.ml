module Builder = Netlist.Builder
module Gates = Netlist.Gates

type spec = {
  name : string;
  seed : int;
  width : int;
  regfile_words : int;
  stage_regs : int array;
  ctrl_ffs : int;
  forwarding : float;
  frequency_mhz : float;
}

let num_flip_flops s =
  s.width + (s.regfile_words * s.width) + Array.fold_left ( + ) 0 s.stage_regs
  + s.ctrl_ffs

let plasma = {
  name = "plasma";
  seed = 101;
  width = 32;
  regfile_words = 32;
  stage_regs = [| 160; 160; 180 |];
  ctrl_ffs = 50;
  forwarding = 0.25;
  frequency_mhz = 500.0;
}

let riscv = {
  name = "riscv";
  seed = 102;
  width = 32;
  regfile_words = 32;
  stage_regs = [| 280; 300; 300; 280; 280 |];
  ctrl_ffs = 299;
  forwarding = 0.35;
  frequency_mhz = 333.3;
}

let arm_m0 = {
  name = "arm_m0";
  seed = 103;
  width = 32;
  regfile_words = 16;
  stage_regs = [| 240; 250; 240 |];
  ctrl_ffs = 123;
  forwarding = 0.80;
  frequency_mhz = 333.3;
}

let make spec =
  let library = Cell_lib.Default_library.library () in
  let rng = Rng.create spec.seed in
  let b = Builder.create ~name:spec.name ~library in
  let clk = Builder.add_input ~clock:true b "clk" in
  let w = spec.width in
  (* external interfaces: instruction/data memory returns, interrupts *)
  let imem = List.init w (fun k -> Builder.add_input b (Printf.sprintf "imem%d" k)) in
  let dmem = List.init w (fun k -> Builder.add_input b (Printf.sprintf "dmem%d" k)) in
  let irq = Builder.add_input b "irq" in
  let reg name k = Printf.sprintf "%s_%d" name k in
  let n_stages = Array.length spec.stage_regs in
  (* pre-allocate register output nets so feedback can reference them *)
  let pc_q = Array.init w (fun k -> Builder.fresh_net b (reg "pc_q" k)) in
  let rf_q =
    Array.init spec.regfile_words (fun wd ->
        Array.init w (fun k ->
            Builder.fresh_net b (Printf.sprintf "rf_%d_%d" wd k)))
  in
  let stage_q =
    Array.mapi
      (fun s count ->
        Array.init count (fun k -> Builder.fresh_net b (Printf.sprintf "st%d_q%d" s k)))
      spec.stage_regs
  in
  let ctrl_q = Array.init spec.ctrl_ffs (fun k -> Builder.fresh_net b (reg "ctrl_q" k)) in
  let last_stage = stage_q.(n_stages - 1) in
  let exec_stage = stage_q.(min 1 (n_stages - 1)) in
  let pick_arr arr = arr.(Rng.int rng (Array.length arr)) in
  (* --- program counter: self-loop through a ripple-ish incrementer with
     branch redirect from the execute stage --- *)
  let carry = ref (Builder.const b true) in
  for k = 0 to w - 1 do
    let sum =
      Gates.emit_fresh b Gates.Xor [pc_q.(k); !carry] ~prefix:(reg "pc_sum" k)
    in
    let new_carry =
      Gates.emit_fresh b Gates.And [pc_q.(k); !carry] ~prefix:(reg "pc_cy" k)
    in
    carry := new_carry;
    let branch_target = pick_arr exec_stage in
    let take_branch = pick_arr exec_stage in
    let next = Gates.mux2 b ~sel:take_branch ~a:sum ~b_in:branch_target
        ~prefix:(reg "pc_nx" k) in
    ignore
      (Builder.add_cell b (reg "pc" k) "DFF_X1"
         [("CK", clk); ("D", next); ("Q", pc_q.(k))])
  done;
  (* --- register file: one write-enable clock gate per word; data comes
     from the last pipeline stage (write-back) --- *)
  for wd = 0 to spec.regfile_words - 1 do
    let dec_a = pick_arr last_stage and dec_b = pick_arr last_stage in
    let en =
      Gates.emit_fresh b
        (if wd mod 2 = 0 then Gates.And else Gates.Nor)
        [dec_a; dec_b] ~prefix:(Printf.sprintf "rf_dec%d" wd)
    in
    let gck = Builder.fresh_net b (Printf.sprintf "rf_gck%d" wd) in
    ignore
      (Builder.add_cell b (Printf.sprintf "rf_icg%d" wd) "ICG_X1"
         [("CK", clk); ("EN", en); ("GCK", gck)]);
    for k = 0 to w - 1 do
      ignore
        (Builder.add_cell b (Printf.sprintf "rf_%d_%d_reg" wd k) "DFF_X1"
           [("CK", gck); ("D", pick_arr last_stage); ("Q", rf_q.(wd).(k))])
    done
  done;
  (* --- pipeline ranks --- *)
  Array.iteri
    (fun s qs ->
      Array.iteri
        (fun k q ->
          let sources =
            if s = 0 then
              (* fetch/decode: instruction bits and PC *)
              [List.nth imem (Rng.int rng w); pick_arr pc_q;
               (if Rng.chance rng 0.3 then irq else pick_arr pc_q)]
            else begin
              let prev = stage_q.(s - 1) in
              let base = [pick_arr prev; pick_arr prev] in
              let base =
                (* register-file read feeds the early stages *)
                if s = 1 then
                  pick_arr rf_q.(Rng.int rng spec.regfile_words) :: base
                else base
              in
              let base =
                if s >= 2 && Rng.chance rng 0.4 then
                  List.nth dmem (Rng.int rng w) :: base
                else base
              in
              (* forwarding: a later stage feeds back *)
              if Rng.chance rng spec.forwarding then
                pick_arr stage_q.(n_stages - 1) :: base
              else base
            end
          in
          let rec tree nets =
            match nets with
            | [] -> assert false
            | [single] -> single
            | a :: b' :: rest ->
              let op = Rng.pick rng [Gates.And; Gates.Or; Gates.Xor; Gates.Nand] in
              tree (Gates.emit_fresh b op [a; b'] ~prefix:(Printf.sprintf "st%d_l%d" s k) :: rest)
          in
          let d = tree sources in
          ignore
            (Builder.add_cell b (Printf.sprintf "st%d_r%d" s k) "DFF_X1"
               [("CK", clk); ("D", d); ("Q", q)]))
        qs)
    stage_q;
  (* --- control FSM: self-looping state registers --- *)
  Array.iteri
    (fun k q ->
      let peer = ctrl_q.((k + 1) mod Array.length ctrl_q) in
      let stim = pick_arr stage_q.(0) in
      let t1 = Gates.emit_fresh b Gates.Nand [q; peer] ~prefix:(reg "ctrl_l" k) in
      let d = Gates.emit_fresh b Gates.Xor [t1; stim] ~prefix:(reg "ctrl_m" k) in
      ignore
        (Builder.add_cell b (reg "ctrl" k) "DFF_X1"
           [("CK", clk); ("D", d); ("Q", q)]))
    ctrl_q;
  (* --- outputs: data-memory interface from the last stages --- *)
  for k = 0 to w - 1 do
    Builder.add_output b (Printf.sprintf "daddr%d" k) (pick_arr exec_stage);
    Builder.add_output b (Printf.sprintf "dout%d" k) (pick_arr last_stage)
  done;
  Builder.freeze b
