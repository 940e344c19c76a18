module Design = Netlist.Design

exception Oscillation of string

let max_lanes = 63

(* --- Lane words ------------------------------------------------------

   A net's 3-valued state is two bitplanes packed into native ints: bit
   [l] of [v] is lane [l]'s value, bit [l] of [x] marks lane [l]
   unknown.  Canonical form: [v land x = 0] and both planes stay inside
   the lane mask.  One bitwise pass evaluates 63 independent stimulus
   lanes per word; a kernel compiled for more than 63 lanes carries
   [nw = ceil(lanes/63)] words per net, laid out contiguously (net [n]
   word [w] lives at index [n*nw + w]), with lane 0 in word 0 so the
   scalar-oracle view stays a single-bit read.  The nw=1 layout is the
   hot specialization: every per-word loop collapses to direct indexing
   and the compiled fast path below avoids the multiply entirely. *)

let mask_of lanes = if lanes >= 63 then -1 else (1 lsl lanes) - 1

let words_of_lanes lanes = (lanes + 62) / 63

(* per-word lane masks: full words are all-ones; the final word keeps
   only the remaining lanes (exact at 63, 64, and non-multiples of 63,
   e.g. 200 lanes -> [-1; -1; -1; mask_of 11]) *)
let word_masks lanes =
  let nw = words_of_lanes lanes in
  Array.init nw (fun w ->
      if w < nw - 1 then -1 else mask_of (lanes - (63 * (nw - 1))))

(* popcount over the 63-bit pattern via a 16-bit table (lsr is logical,
   so the sign bit lands in the top chunk) *)
let pop16 =
  let tbl = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec cnt n acc = if n = 0 then acc else cnt (n lsr 1) (acc + (n land 1)) in
    Bytes.unsafe_set tbl i (Char.unsafe_chr (cnt i 0))
  done;
  tbl

let popcount n =
  Char.code (Bytes.unsafe_get pop16 (n land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((n lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((n lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (n lsr 48))

(* --- Instruction set -------------------------------------------------

   Every instance compiles to one opcode over a CSR operand slice.
   Common cell functions get fused opcodes; anything else falls back to
   a postfix micro-program over the cell's input pins. *)

let op_const0 = 0
let op_const1 = 1
let op_buf = 2
let op_inv = 3
let op_and = 4      (* n-ary *)
let op_nand = 5
let op_or = 6
let op_nor = 7
let op_xor2 = 8
let op_xnor2 = 9
let op_mux = 10     (* ins = [s; b; a], out = s ? b : a *)
let op_aoi21 = 11   (* !((i0 & i1) | i2) *)
let op_oai21 = 12   (* !((i0 | i1) & i2) *)
let op_prog = 13
let op_ff = 16      (* ins = [clk; d (; rn)] *)
let op_latch_h = 17 (* ins = [en; d (; rn)] *)
let op_latch_l = 18
let op_icg_std = 19 (* ins = [ck; en] *)
let op_icg_m1 = 20  (* ins = [ck; en (; p3)] *)
let op_icg_m2 = 21

(* postfix micro-ops: tag in low 3 bits, pin index above *)
let p_pin = 0
let p_c0 = 1
let p_c1 = 2
let p_not = 3
let p_and = 4
let p_or = 5
let p_xor = 6

(* commit modes: how a freshly evaluated net value re-enters the graph.
   [cm_wake] enqueues the net's reader units (normal data settle);
   [cm_fused] stores the value silently — used for the internal nets of
   a fused unit, whose single reader is evaluated in the same straight
   line a moment later, so worklist traffic for them is pure overhead;
   [cm_clock] stores silently but records the net in the per-event dirty
   set that drives activity gating of clock events. *)
let cm_wake = 0
let cm_fused = 1
let cm_clock = 2

(* A scheduled clock event with its statically planned reach: starting
   from the event's port nets, only clock-network instances transitively
   fed by those nets can go dirty, and only sequential elements clocked
   from inside that cone can capture.  The plan is a sound superset of
   any cycle's actual dirty set (runtime [net_dirty] checks keep the
   skips exact), so predicted-cold sequential cones are never even
   scanned. *)
type clock_event = {
  ev_changes : (int * bool) array; (* port net, level *)
  ev_insts : int array;   (* reachable clock insts, BFS-order subsequence *)
  ev_outs : int array;    (* their output nets, same order *)
  ev_seq : int array;     (* seq insts clocked from the cone, ascending *)
}

type t = {
  design : Design.t;
  clocks : Clock_spec.t;
  lanes : int;
  nw : int;                   (* bitplane words per net *)
  wmask : int array;          (* per-word lane masks, length nw *)
  mask : int;                 (* wmask.(0) — the only mask when nw = 1 *)
  gating : bool;
  (* nets: bitplanes and toggle counters *)
  v : int array;              (* net n word w at n*nw + w *)
  x : int array;
  toggles : int array;        (* popcount-summed over all lanes *)
  toggles0 : int array;       (* lane 0 only — the scalar-oracle view *)
  (* instances: flat compiled form *)
  opcode : int array;
  ins_off : int array;        (* CSR into ins, length n_insts+1 *)
  ins : int array;            (* operand nets *)
  out_net : int array;
  st_v : int array;           (* FF/latch state; ICG enable-latch state *)
  st_x : int array;           (* inst i word w at i*nw + w *)
  pv_v : int array;           (* previous clock/enable pin planes *)
  pv_x : int array;
  prog_off : int array;       (* CSR into prog (op_prog instances only) *)
  prog : int array;
  prog_sv : int array;        (* shared evaluation stacks *)
  prog_sx : int array;
  (* fused execution units: maximal single-fanout trees of combinational
     instances collapse into one straight-line unit, members in
     evaluation order with the root (the sole externally visible output)
     last.  Sequential and clock-network instances stay singletons. *)
  n_units : int;
  u_off : int array;          (* CSR into u_mem, length n_units+1 *)
  u_mem : int array;
  u_level : int array;        (* root level — worklist bucket of the unit *)
  n_fused : int;              (* instances absorbed as non-root members *)
  (* graph: CSR fanout net -> sink units (duplicates preserved) *)
  fo_off : int array;
  fo : int array;
  (* level-ordered worklist over units (same discipline as
     Engine.settle), buckets as growable int FIFOs — no per-wake
     allocation *)
  bq_data : int array array;
  bq_head : int array;
  bq_tail : int array;
  mutable cursor : int;
  mutable queued : int;
  in_queue : bool array;
  (* clock machinery: scheduled events with port nets pre-resolved and
     pre-split around the first rising edge of the period *)
  clock_insts : int array;
  clock_outs : int array;     (* their output nets, same order *)
  seq_insts : int array;      (* FF/latch instances, ascending *)
  ev_pre : clock_event list;
  ev_post : clock_event list;
  net_dirty : bool array;
  mutable dirty : int list;
  (* primary-input staging for per-lane application *)
  input_nets : (string * int) list;
  input_index : (string, int) Hashtbl.t;
  stage_v : int array;
  stage_x : int array;
  staged : bool array;
  mutable touched : int list;
  mutable cycle_count : int;
  (* activity-gating effectiveness *)
  mutable waves_skipped : int;
  mutable cones_skipped : int;
}

type stats = {
  units : int;
  fused_ops : int;
  stat_waves_skipped : int;
  stat_cones_skipped : int;
}

(* --- Compilation ----------------------------------------------------- *)

type compiled_inst = {
  c_op : int;
  c_ins : int list;       (* operand nets *)
  c_out : int;
  c_prog : int list;      (* postfix program, op_prog only *)
  c_depth : int;          (* its stack need *)
}

let rec flatten_and e acc =
  match e with
  | Cell_lib.Expr.And (a, b) -> flatten_and a (flatten_and b acc)
  | e -> e :: acc

let rec flatten_or e acc =
  match e with
  | Cell_lib.Expr.Or (a, b) -> flatten_or a (flatten_or b acc)
  | e -> e :: acc

let all_pins es =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Cell_lib.Expr.Pin p :: rest -> go (p :: acc) rest
    | _ -> None
  in
  go [] es

(* recognize a fused opcode; operands returned as pin names *)
let classify expr =
  let open Cell_lib.Expr in
  match expr with
  | Const false -> Some (op_const0, [])
  | Const true -> Some (op_const1, [])
  | Pin p -> Some (op_buf, [p])
  | Xor (Pin a, Pin b) -> Some (op_xor2, [a; b])
  | Or (And (Pin s, Pin b), And (Not (Pin s'), Pin a)) when String.equal s s' ->
    Some (op_mux, [s; b; a])
  | Or (And (Not (Pin s), Pin a), And (Pin s', Pin b)) when String.equal s s' ->
    Some (op_mux, [s; b; a])
  | Not inner ->
    (match inner with
     | Pin p -> Some (op_inv, [p])
     | Xor (Pin a, Pin b) -> Some (op_xnor2, [a; b])
     | Or (And (Pin a1, Pin a2), Pin b) -> Some (op_aoi21, [a1; a2; b])
     | Or (Pin b, And (Pin a1, Pin a2)) -> Some (op_aoi21, [a1; a2; b])
     | And (Or (Pin a1, Pin a2), Pin b) -> Some (op_oai21, [a1; a2; b])
     | And (Pin b, Or (Pin a1, Pin a2)) -> Some (op_oai21, [a1; a2; b])
     | And _ ->
       (match all_pins (flatten_and inner []) with
        | Some pins -> Some (op_nand, pins)
        | None -> None)
     | Or _ ->
       (match all_pins (flatten_or inner []) with
        | Some pins -> Some (op_nor, pins)
        | None -> None)
     | _ -> None)
  | And _ ->
    (match all_pins (flatten_and expr []) with
     | Some pins -> Some (op_and, pins)
     | None -> None)
  | Or _ ->
    (match all_pins (flatten_or expr []) with
     | Some pins -> Some (op_or, pins)
     | None -> None)
  | Xor _ -> None

(* postfix fallback: program over input-pin indexes *)
let compile_prog pins expr =
  let index p =
    let rec go k = function
      | [] -> invalid_arg ("Kernel: function references unknown pin " ^ p)
      | name :: rest -> if String.equal name p then k else go (k + 1) rest
    in
    go 0 pins
  in
  let code = ref [] in
  let emit op = code := op :: !code in
  let depth = ref 0 and max_depth = ref 0 in
  let push () =
    incr depth;
    if !depth > !max_depth then max_depth := !depth
  in
  let rec go = function
    | Cell_lib.Expr.Const b -> emit (if b then p_c1 else p_c0); push ()
    | Cell_lib.Expr.Pin p -> emit (p_pin lor (index p lsl 3)); push ()
    | Cell_lib.Expr.Not e -> go e; emit p_not
    | Cell_lib.Expr.And (a, b) -> go a; go b; emit p_and; decr depth
    | Cell_lib.Expr.Or (a, b) -> go a; go b; emit p_or; decr depth
    | Cell_lib.Expr.Xor (a, b) -> go a; go b; emit p_xor; decr depth
  in
  go expr;
  (List.rev !code, !max_depth)

let compile_inst d i =
  let c = Design.cell d i in
  let conn pin =
    match Design.pin_net_opt d i pin with
    | Some n -> n
    | None ->
      invalid_arg
        (Printf.sprintf "Kernel: %s pin %s unconnected" (Design.inst_name d i) pin)
  in
  match c.Cell_lib.Cell.kind with
  | Cell_lib.Cell.Flip_flop { clock_pin; data_pin; edge; reset_pin } ->
    (* active-low-edge FFs are not used by this project *)
    assert (edge = Cell_lib.Cell.Active_high);
    let rn = match reset_pin with Some p -> [conn p] | None -> [] in
    { c_op = op_ff; c_ins = conn clock_pin :: conn data_pin :: rn;
      c_out = conn "Q"; c_prog = []; c_depth = 0 }
  | Cell_lib.Cell.Latch { enable_pin; data_pin; transparent; reset_pin } ->
    let rn = match reset_pin with Some p -> [conn p] | None -> [] in
    let op =
      if transparent = Cell_lib.Cell.Active_high then op_latch_h else op_latch_l
    in
    { c_op = op; c_ins = conn enable_pin :: conn data_pin :: rn;
      c_out = conn "Q"; c_prog = []; c_depth = 0 }
  | Cell_lib.Cell.Clock_gate { clock_pin; enable_pin; style; aux_clock_pin } ->
    let op, aux =
      match style with
      | Cell_lib.Cell.Icg_standard -> op_icg_std, []
      | Cell_lib.Cell.Icg_m1_p3 ->
        op_icg_m1, (match aux_clock_pin with Some p -> [conn p] | None -> [])
      | Cell_lib.Cell.Icg_m2_latchless -> op_icg_m2, []
    in
    { c_op = op; c_ins = conn clock_pin :: conn enable_pin :: aux;
      c_out = conn "GCK"; c_prog = []; c_depth = 0 }
  | Cell_lib.Cell.Combinational ->
    let input_pins = Cell_lib.Cell.input_pins c in
    let pin_names =
      List.map (fun (p : Cell_lib.Cell.pin) -> p.Cell_lib.Cell.pin_name) input_pins
    in
    let out_pin, func =
      match Cell_lib.Cell.output_pins c with
      | [p] ->
        (match p.Cell_lib.Cell.func with
         | Some f -> p.Cell_lib.Cell.pin_name, f
         | None ->
           invalid_arg
             (Printf.sprintf "Kernel: comb cell %s output has no function"
                c.Cell_lib.Cell.name))
      | [] | _ :: _ :: _ ->
        invalid_arg
          (Printf.sprintf "Kernel: comb cell %s must have one output"
             c.Cell_lib.Cell.name)
    in
    (match classify func with
     | Some (op, operand_pins) ->
       { c_op = op; c_ins = List.map conn operand_pins; c_out = conn out_pin;
         c_prog = []; c_depth = 0 }
     | None ->
       let prog, depth = compile_prog pin_names func in
       { c_op = op_prog; c_ins = List.map conn pin_names; c_out = conn out_pin;
         c_prog = prog; c_depth = depth })

let is_seq_op op = op = op_ff || op = op_latch_h || op = op_latch_l

let is_icg_op op = op >= op_icg_std

(* --- Worklist -------------------------------------------------------- *)

let wake t u =
  if not t.in_queue.(u) then begin
    t.in_queue.(u) <- true;
    let l = t.u_level.(u) in
    let tl = t.bq_tail.(l) in
    let data = t.bq_data.(l) in
    if tl = Array.length data then begin
      let nd = Array.make ((2 * tl) + 8) 0 in
      Array.blit data 0 nd 0 tl;
      nd.(tl) <- u;
      t.bq_data.(l) <- nd
    end
    else data.(tl) <- u;
    t.bq_tail.(l) <- tl + 1;
    t.queued <- t.queued + 1;
    if l < t.cursor then t.cursor <- l
  end

let pop t =
  while t.bq_head.(t.cursor) = t.bq_tail.(t.cursor) do
    t.cursor <- t.cursor + 1
  done;
  let c = t.cursor in
  let h = t.bq_head.(c) in
  let u = t.bq_data.(c).(h) in
  if h + 1 = t.bq_tail.(c) then begin
    t.bq_head.(c) <- 0;
    t.bq_tail.(c) <- 0
  end
  else t.bq_head.(c) <- h + 1;
  t.queued <- t.queued - 1;
  u

let wake_net_readers t n =
  for k = t.fo_off.(n) to t.fo_off.(n + 1) - 1 do
    wake t t.fo.(k)
  done

(* --- Event dirty set -------------------------------------------------- *)

let mark_dirty t n =
  if not t.net_dirty.(n) then begin
    t.net_dirty.(n) <- true;
    t.dirty <- n :: t.dirty
  end

let clear_dirty t =
  List.iter (fun n -> t.net_dirty.(n) <- false) t.dirty;
  t.dirty <- []

(* --- Net commits ------------------------------------------------------ *)

(* single-word commit (nw = 1): nets index the planes directly *)
let commit1 t n nv nx mode =
  let ov = t.v.(n) and ox = t.x.(n) in
  if ov <> nv || ox <> nx then begin
    let d = (ov lxor nv) land lnot (ox lor nx) in
    if d <> 0 then begin
      (* broadcast stimuli flip all lanes at once; skip the table walk *)
      t.toggles.(n) <-
        t.toggles.(n) + (if d = t.mask then t.lanes else popcount d);
      t.toggles0.(n) <- t.toggles0.(n) + (d land 1)
    end;
    t.v.(n) <- nv;
    t.x.(n) <- nx;
    if mode = cm_wake then
      for k = t.fo_off.(n) to t.fo_off.(n + 1) - 1 do
        wake t t.fo.(k)
      done
    else if mode = cm_clock then mark_dirty t n
  end

(* word [w] of net [n] (general path); lane 0 lives in word 0 *)
let commitw t n w nv nx mode =
  let k = (n * t.nw) + w in
  let ov = t.v.(k) and ox = t.x.(k) in
  if ov <> nv || ox <> nx then begin
    let d = (ov lxor nv) land lnot (ox lor nx) in
    if d <> 0 then begin
      t.toggles.(n) <- t.toggles.(n) + popcount d;
      if w = 0 then t.toggles0.(n) <- t.toggles0.(n) + (d land 1)
    end;
    t.v.(k) <- nv;
    t.x.(k) <- nx;
    if mode = cm_wake then
      for s = t.fo_off.(n) to t.fo_off.(n + 1) - 1 do
        wake t t.fo.(s)
      done
    else if mode = cm_clock then mark_dirty t n
  end

(* --- Bitwise 3-valued primitives (canonical planes in, canonical out) *)

(* AND: 0 dominates X; unknown only where no side is a definite 0 *)
let and_v va vb = va land vb
let and_x va xa vb xb = (xa lor xb) land (va lor xa) land (vb lor xb)

(* OR: 1 dominates X *)
let or_v va vb = va lor vb
let or_x va xa vb xb = (xa lor xb) land lnot (va lor vb)

let xor_x xa xb = xa lor xb
let xor_v va xa vb xb = (va lxor vb) land lnot (xa lor xb)

let not_v mask va xa = mask land lnot (va lor xa)

(* --- Instance evaluation: nw = 1 fast path ---------------------------- *)

(* comb/ICG instance [i]: evaluate against the current planes and commit
   the output net under [mode].  Each branch commits directly so the hot
   loop never allocates a result tuple.  ICGs also update their
   enable-latch state (mirrors Engine.icg_output). *)
let eval_comb1 t i op mode =
  let off = t.ins_off.(i) in
  let out = t.out_net.(i) in
  if op = op_inv then
    let n = t.ins.(off) in
    commit1 t out (not_v t.mask t.v.(n) t.x.(n)) t.x.(n) mode
  else if op = op_and || op = op_nand then begin
    let arity = t.ins_off.(i + 1) - off in
    let n0 = t.ins.(off) in
    let rv = ref t.v.(n0) and rx = ref t.x.(n0) in
    for k = off + 1 to off + arity - 1 do
      let n = t.ins.(k) in
      let nv = and_v !rv t.v.(n) in
      rx := and_x !rv !rx t.v.(n) t.x.(n);
      rv := nv
    done;
    if op = op_nand then commit1 t out (not_v t.mask !rv !rx) !rx mode
    else commit1 t out !rv !rx mode
  end
  else if op = op_or || op = op_nor then begin
    let arity = t.ins_off.(i + 1) - off in
    let n0 = t.ins.(off) in
    let rv = ref t.v.(n0) and rx = ref t.x.(n0) in
    for k = off + 1 to off + arity - 1 do
      let n = t.ins.(k) in
      let nv = or_v !rv t.v.(n) in
      rx := or_x !rv !rx t.v.(n) t.x.(n);
      rv := nv
    done;
    if op = op_nor then commit1 t out (not_v t.mask !rv !rx) !rx mode
    else commit1 t out !rv !rx mode
  end
  else if op = op_xor2 || op = op_xnor2 then begin
    let a = t.ins.(off) and b = t.ins.(off + 1) in
    let rv = xor_v t.v.(a) t.x.(a) t.v.(b) t.x.(b) in
    let rx = xor_x t.x.(a) t.x.(b) in
    if op = op_xnor2 then commit1 t out (not_v t.mask rv rx) rx mode
    else commit1 t out rv rx mode
  end
  else if op = op_aoi21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = and_v t.v.(a1) t.v.(a2) in
    let p_x = and_x t.v.(a1) t.x.(a1) t.v.(a2) t.x.(a2) in
    let s_v = or_v p_v t.v.(b) in
    let s_x = or_x p_v p_x t.v.(b) t.x.(b) in
    commit1 t out (not_v t.mask s_v s_x) s_x mode
  end
  else if op = op_oai21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = or_v t.v.(a1) t.v.(a2) in
    let p_x = or_x t.v.(a1) t.x.(a1) t.v.(a2) t.x.(a2) in
    let s_v = and_v p_v t.v.(b) in
    let s_x = and_x p_v p_x t.v.(b) t.x.(b) in
    commit1 t out (not_v t.mask s_v s_x) s_x mode
  end
  else if op = op_mux then begin
    (* (s & b) | (!s & a) *)
    let s = t.ins.(off) and b = t.ins.(off + 1) and a = t.ins.(off + 2) in
    let ns_v = not_v t.mask t.v.(s) t.x.(s) and ns_x = t.x.(s) in
    let l_v = and_v t.v.(s) t.v.(b) in
    let l_x = and_x t.v.(s) t.x.(s) t.v.(b) t.x.(b) in
    let r_v = and_v ns_v t.v.(a) in
    let r_x = and_x ns_v ns_x t.v.(a) t.x.(a) in
    commit1 t out (or_v l_v r_v) (or_x l_v l_x r_v r_x) mode
  end
  else if op = op_buf then
    let n = t.ins.(off) in
    commit1 t out t.v.(n) t.x.(n) mode
  else if op = op_prog then begin
    let sv = t.prog_sv and sx = t.prog_sx in
    let sp = ref 0 in
    for k = t.prog_off.(i) to t.prog_off.(i + 1) - 1 do
      let c = t.prog.(k) in
      match c land 7 with
      | 0 (* p_pin *) ->
        let n = t.ins.(off + (c lsr 3)) in
        sv.(!sp) <- t.v.(n); sx.(!sp) <- t.x.(n); incr sp
      | 1 (* p_c0 *) -> sv.(!sp) <- 0; sx.(!sp) <- 0; incr sp
      | 2 (* p_c1 *) -> sv.(!sp) <- t.mask; sx.(!sp) <- 0; incr sp
      | 3 (* p_not *) ->
        let j = !sp - 1 in
        sv.(j) <- not_v t.mask sv.(j) sx.(j)
      | 4 (* p_and *) ->
        let j = !sp - 2 in
        let rv = and_v sv.(j) sv.(j + 1) in
        sx.(j) <- and_x sv.(j) sx.(j) sv.(j + 1) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
      | 5 (* p_or *) ->
        let j = !sp - 2 in
        let rv = or_v sv.(j) sv.(j + 1) in
        sx.(j) <- or_x sv.(j) sx.(j) sv.(j + 1) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
      | _ (* p_xor *) ->
        let j = !sp - 2 in
        let rv = xor_v sv.(j) sx.(j) sv.(j + 1) sx.(j + 1) in
        sx.(j) <- xor_x sx.(j) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
    done;
    commit1 t out sv.(0) sx.(0) mode
  end
  else if op = op_const0 then commit1 t out 0 0 mode
  else if op = op_const1 then commit1 t out t.mask 0 mode
  else begin
    (* ICG: update the enable latch, emit the gated clock.  The standard
       cell latches EN while CK is a known 0; M1 latches while P3 is a
       known 1; M2 has no latch. *)
    let ck = t.ins.(off) and en = t.ins.(off + 1) in
    let m =
      if op = op_icg_std then t.mask land lnot (t.v.(ck) lor t.x.(ck))
      else if op = op_icg_m1 then
        (if t.ins_off.(i + 1) - off > 2 then t.v.(t.ins.(off + 2)) else t.mask)
      else t.mask
    in
    if m <> 0 then begin
      t.st_v.(i) <- (t.st_v.(i) land lnot m) lor (t.v.(en) land m);
      t.st_x.(i) <- (t.st_x.(i) land lnot m) lor (t.x.(en) land m)
    end;
    commit1 t out
      (and_v t.v.(ck) t.st_v.(i))
      (and_x t.v.(ck) t.x.(ck) t.st_v.(i) t.st_x.(i))
      mode
  end

(* per-lane mask of reset-asserted lanes (RN a known 0) *)
let reset_mask1 t i =
  let off = t.ins_off.(i) in
  if t.ins_off.(i + 1) - off > 2 then begin
    let rn = t.ins.(off + 2) in
    t.mask land lnot (t.v.(rn) lor t.x.(rn))
  end
  else 0

(* update FF state: capture data on lanes with a known 0->1 clock edge,
   clear lanes under reset; advance the previous-clock planes *)
let ff_update1 t i =
  let off = t.ins_off.(i) in
  let clk = t.ins.(off) and dn = t.ins.(off + 1) in
  let cv = t.v.(clk) and cx = t.x.(clk) in
  let r = reset_mask1 t i in
  (* canonical planes: cv already implies "known 1" *)
  let rise = lnot t.pv_v.(i) land lnot t.pv_x.(i) land cv in
  let cap = rise land lnot r land t.mask in
  if cap <> 0 then begin
    t.st_v.(i) <- (t.st_v.(i) land lnot cap) lor (t.v.(dn) land cap);
    t.st_x.(i) <- (t.st_x.(i) land lnot cap) lor (t.x.(dn) land cap)
  end;
  if r <> 0 then begin
    t.st_v.(i) <- t.st_v.(i) land lnot r;
    t.st_x.(i) <- t.st_x.(i) land lnot r
  end;
  t.pv_v.(i) <- cv;
  t.pv_x.(i) <- cx

(* update latch state: follow data on transparent lanes *)
let latch_update1 t i op =
  let off = t.ins_off.(i) in
  let en = t.ins.(off) and dn = t.ins.(off + 1) in
  let ev = t.v.(en) and ex = t.x.(en) in
  let r = reset_mask1 t i in
  let trans =
    if op = op_latch_h then ev else t.mask land lnot (ev lor ex)
  in
  let cap = trans land lnot r land t.mask in
  if cap <> 0 then begin
    t.st_v.(i) <- (t.st_v.(i) land lnot cap) lor (t.v.(dn) land cap);
    t.st_x.(i) <- (t.st_x.(i) land lnot cap) lor (t.x.(dn) land cap)
  end;
  if r <> 0 then begin
    t.st_v.(i) <- t.st_v.(i) land lnot r;
    t.st_x.(i) <- t.st_x.(i) land lnot r
  end;
  t.pv_v.(i) <- ev;
  t.pv_x.(i) <- ex

(* --- Instance evaluation: general multi-word path --------------------- *)

(* word-sliced twin of [eval_comb1]: evaluates word [w] of instance [i]
   and commits it.  Runs once per word; correctness is identical because
   lanes never interact across words. *)
let eval_combw t i op w mode =
  let nw = t.nw in
  let wm = t.wmask.(w) in
  let off = t.ins_off.(i) in
  let out = t.out_net.(i) in
  let vw n = t.v.((n * nw) + w) in
  let xw n = t.x.((n * nw) + w) in
  if op = op_prog then begin
    let sv = t.prog_sv and sx = t.prog_sx in
    let sp = ref 0 in
    for k = t.prog_off.(i) to t.prog_off.(i + 1) - 1 do
      let c = t.prog.(k) in
      match c land 7 with
      | 0 (* p_pin *) ->
        let n = t.ins.(off + (c lsr 3)) in
        sv.(!sp) <- vw n; sx.(!sp) <- xw n; incr sp
      | 1 (* p_c0 *) -> sv.(!sp) <- 0; sx.(!sp) <- 0; incr sp
      | 2 (* p_c1 *) -> sv.(!sp) <- wm; sx.(!sp) <- 0; incr sp
      | 3 (* p_not *) ->
        let j = !sp - 1 in
        sv.(j) <- not_v wm sv.(j) sx.(j)
      | 4 (* p_and *) ->
        let j = !sp - 2 in
        let rv = and_v sv.(j) sv.(j + 1) in
        sx.(j) <- and_x sv.(j) sx.(j) sv.(j + 1) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
      | 5 (* p_or *) ->
        let j = !sp - 2 in
        let rv = or_v sv.(j) sv.(j + 1) in
        sx.(j) <- or_x sv.(j) sx.(j) sv.(j + 1) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
      | _ (* p_xor *) ->
        let j = !sp - 2 in
        let rv = xor_v sv.(j) sx.(j) sv.(j + 1) sx.(j + 1) in
        sx.(j) <- xor_x sx.(j) sx.(j + 1);
        sv.(j) <- rv;
        decr sp
    done;
    commitw t out w sv.(0) sx.(0) mode
  end
  else if op = op_buf then
    let n = t.ins.(off) in
    commitw t out w (vw n) (xw n) mode
  else if op = op_inv then
    let n = t.ins.(off) in
    commitw t out w (not_v wm (vw n) (xw n)) (xw n) mode
  else if op = op_and || op = op_nand then begin
    let arity = t.ins_off.(i + 1) - off in
    let n0 = t.ins.(off) in
    let rv = ref (vw n0) and rx = ref (xw n0) in
    for k = off + 1 to off + arity - 1 do
      let n = t.ins.(k) in
      let nv = and_v !rv (vw n) in
      rx := and_x !rv !rx (vw n) (xw n);
      rv := nv
    done;
    if op = op_nand then commitw t out w (not_v wm !rv !rx) !rx mode
    else commitw t out w !rv !rx mode
  end
  else if op = op_or || op = op_nor then begin
    let arity = t.ins_off.(i + 1) - off in
    let n0 = t.ins.(off) in
    let rv = ref (vw n0) and rx = ref (xw n0) in
    for k = off + 1 to off + arity - 1 do
      let n = t.ins.(k) in
      let nv = or_v !rv (vw n) in
      rx := or_x !rv !rx (vw n) (xw n);
      rv := nv
    done;
    if op = op_nor then commitw t out w (not_v wm !rv !rx) !rx mode
    else commitw t out w !rv !rx mode
  end
  else if op = op_xor2 || op = op_xnor2 then begin
    let a = t.ins.(off) and b = t.ins.(off + 1) in
    let rv = xor_v (vw a) (xw a) (vw b) (xw b) in
    let rx = xor_x (xw a) (xw b) in
    if op = op_xnor2 then commitw t out w (not_v wm rv rx) rx mode
    else commitw t out w rv rx mode
  end
  else if op = op_mux then begin
    let s = t.ins.(off) and b = t.ins.(off + 1) and a = t.ins.(off + 2) in
    let ns_v = not_v wm (vw s) (xw s) and ns_x = xw s in
    let l_v = and_v (vw s) (vw b) in
    let l_x = and_x (vw s) (xw s) (vw b) (xw b) in
    let r_v = and_v ns_v (vw a) in
    let r_x = and_x ns_v ns_x (vw a) (xw a) in
    commitw t out w (or_v l_v r_v) (or_x l_v l_x r_v r_x) mode
  end
  else if op = op_aoi21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = and_v (vw a1) (vw a2) in
    let p_x = and_x (vw a1) (xw a1) (vw a2) (xw a2) in
    let s_v = or_v p_v (vw b) in
    let s_x = or_x p_v p_x (vw b) (xw b) in
    commitw t out w (not_v wm s_v s_x) s_x mode
  end
  else if op = op_oai21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = or_v (vw a1) (vw a2) in
    let p_x = or_x (vw a1) (xw a1) (vw a2) (xw a2) in
    let s_v = and_v p_v (vw b) in
    let s_x = and_x p_v p_x (vw b) (xw b) in
    commitw t out w (not_v wm s_v s_x) s_x mode
  end
  else if op = op_const0 then commitw t out w 0 0 mode
  else if op = op_const1 then commitw t out w wm 0 mode
  else begin
    let ck = t.ins.(off) and en = t.ins.(off + 1) in
    let m =
      if op = op_icg_std then wm land lnot (vw ck lor xw ck)
      else if op = op_icg_m1 then
        (if t.ins_off.(i + 1) - off > 2 then vw t.ins.(off + 2) else wm)
      else wm
    in
    let k = (i * nw) + w in
    if m <> 0 then begin
      t.st_v.(k) <- (t.st_v.(k) land lnot m) lor (vw en land m);
      t.st_x.(k) <- (t.st_x.(k) land lnot m) lor (xw en land m)
    end;
    commitw t out w
      (and_v (vw ck) t.st_v.(k))
      (and_x (vw ck) (xw ck) t.st_v.(k) t.st_x.(k))
      mode
  end

let eval_combn t i op mode =
  for w = 0 to t.nw - 1 do
    eval_combw t i op w mode
  done

let ff_updaten t i =
  let nw = t.nw in
  let off = t.ins_off.(i) in
  let clk = t.ins.(off) and dn = t.ins.(off + 1) in
  let has_rn = t.ins_off.(i + 1) - off > 2 in
  let rn = if has_rn then t.ins.(off + 2) else 0 in
  for w = 0 to nw - 1 do
    let k = (i * nw) + w in
    let cv = t.v.((clk * nw) + w) and cx = t.x.((clk * nw) + w) in
    let r =
      if has_rn then
        t.wmask.(w) land lnot (t.v.((rn * nw) + w) lor t.x.((rn * nw) + w))
      else 0
    in
    let rise = lnot t.pv_v.(k) land lnot t.pv_x.(k) land cv in
    let cap = rise land lnot r land t.wmask.(w) in
    if cap <> 0 then begin
      t.st_v.(k) <- (t.st_v.(k) land lnot cap) lor (t.v.((dn * nw) + w) land cap);
      t.st_x.(k) <- (t.st_x.(k) land lnot cap) lor (t.x.((dn * nw) + w) land cap)
    end;
    if r <> 0 then begin
      t.st_v.(k) <- t.st_v.(k) land lnot r;
      t.st_x.(k) <- t.st_x.(k) land lnot r
    end;
    t.pv_v.(k) <- cv;
    t.pv_x.(k) <- cx
  done

let latch_updaten t i op =
  let nw = t.nw in
  let off = t.ins_off.(i) in
  let en = t.ins.(off) and dn = t.ins.(off + 1) in
  let has_rn = t.ins_off.(i + 1) - off > 2 in
  let rn = if has_rn then t.ins.(off + 2) else 0 in
  for w = 0 to nw - 1 do
    let k = (i * nw) + w in
    let ev = t.v.((en * nw) + w) and ex = t.x.((en * nw) + w) in
    let r =
      if has_rn then
        t.wmask.(w) land lnot (t.v.((rn * nw) + w) lor t.x.((rn * nw) + w))
      else 0
    in
    let trans =
      if op = op_latch_h then ev else t.wmask.(w) land lnot (ev lor ex)
    in
    let cap = trans land lnot r land t.wmask.(w) in
    if cap <> 0 then begin
      t.st_v.(k) <- (t.st_v.(k) land lnot cap) lor (t.v.((dn * nw) + w) land cap);
      t.st_x.(k) <- (t.st_x.(k) land lnot cap) lor (t.x.((dn * nw) + w) land cap)
    end;
    if r <> 0 then begin
      t.st_v.(k) <- t.st_v.(k) land lnot r;
      t.st_x.(k) <- t.st_x.(k) land lnot r
    end;
    t.pv_v.(k) <- ev;
    t.pv_x.(k) <- ex
  done

(* release a sequential element's state onto its output net *)
let release_seq t i mode =
  if t.nw = 1 then commit1 t t.out_net.(i) t.st_v.(i) t.st_x.(i) mode
  else
    for w = 0 to t.nw - 1 do
      commitw t t.out_net.(i) w t.st_v.((i * t.nw) + w) t.st_x.((i * t.nw) + w)
        mode
    done

(* --- Unit evaluation and settle ---------------------------------------

   A fused unit's members run as one straight line in topological order.
   Internal nets (every non-root member has its single reader inside the
   unit) commit with [cm_fused]: the value and its toggles land in the
   planes — intermediate nets stay observable and toggle-exact — but no
   worklist traffic is generated for them.  This is exact because
   evaluation within a settle wave is level-monotone: by the time any
   unit pops, all its external inputs for this wave are final, and
   feedback (through registers or cyclic-parked instances) re-enters
   only via later buckets. *)

let eval_inst_seq1 t i op =
  if op = op_ff then ff_update1 t i else latch_update1 t i op;
  commit1 t t.out_net.(i) t.st_v.(i) t.st_x.(i) cm_wake

let eval_inst_seqn t i op =
  if op = op_ff then ff_updaten t i else latch_updaten t i op;
  release_seq t i cm_wake

let eval_unit1 t u =
  let first = t.u_off.(u) and last = t.u_off.(u + 1) - 1 in
  if first = last then begin
    let i = t.u_mem.(first) in
    let op = t.opcode.(i) in
    if is_seq_op op then eval_inst_seq1 t i op
    else eval_comb1 t i op cm_wake
  end
  else
    for k = first to last do
      let i = t.u_mem.(k) in
      eval_comb1 t i t.opcode.(i) (if k = last then cm_wake else cm_fused)
    done

let eval_unitn t u =
  let first = t.u_off.(u) and last = t.u_off.(u + 1) - 1 in
  if first = last then begin
    let i = t.u_mem.(first) in
    let op = t.opcode.(i) in
    if is_seq_op op then eval_inst_seqn t i op
    else eval_combn t i op cm_wake
  end
  else
    for k = first to last do
      let i = t.u_mem.(k) in
      eval_combn t i t.opcode.(i) (if k = last then cm_wake else cm_fused)
    done

let settle t =
  if t.queued = 0 then
    (* an entire settle wave with nothing to do — the phase's activity
       gating left this cone untouched *)
    t.waves_skipped <- t.waves_skipped + 1
  else begin
    let budget = 64 * (Design.num_insts t.design + 16) in
    let steps = ref 0 in
    let w1 = t.nw = 1 in
    (* one wave-size histogram sample per cursor arrival at a bucket:
       comb buckets receive wakes only from strictly lower levels, so
       their occupancy is final when the cursor reaches them *)
    let c_prev = ref (-1) in
    while t.queued > 0 do
      while t.bq_head.(t.cursor) = t.bq_tail.(t.cursor) do
        t.cursor <- t.cursor + 1
      done;
      let c = t.cursor in
      if c <> !c_prev then begin
        c_prev := c;
        Obs.hist "sim.kernel.wave.units"
          (float_of_int (t.bq_tail.(c) - t.bq_head.(c)))
      end;
      incr steps;
      let u = pop t in
      t.in_queue.(u) <- false;
      if w1 then eval_unit1 t u else eval_unitn t u;
      if !steps > budget then
        raise (Oscillation
                 (Printf.sprintf "design %s failed to settle"
                    t.design.Design.design_name))
    done
  end

(* --- Clock events ----------------------------------------------------- *)

(* Re-evaluate (a planned subsequence of) the clock network in BFS
   order.  When [gated], an instance none of whose input nets changed
   this event is skipped: its output and (for ICGs) enable-latch state
   are already consistent, because enable changes arriving between
   events re-evaluate it through the ordinary settle worklist. *)
let propagate_clock_network t ~gated insts =
  let w1 = t.nw = 1 in
  Array.iter
    (fun i ->
      let op = t.opcode.(i) in
      if not (is_seq_op op) then begin
        let live =
          (not gated)
          ||
          (let off = t.ins_off.(i) and hot = ref false in
           for k = off to t.ins_off.(i + 1) - 1 do
             if t.net_dirty.(t.ins.(k)) then hot := true
           done;
           !hot)
        in
        if live then
          if w1 then eval_comb1 t i op cm_clock
          else eval_combn t i op cm_clock
      end)
    insts

let set_port t net level =
  if t.nw = 1 then commit1 t net (if level then t.mask else 0) 0 cm_clock
  else
    for w = 0 to t.nw - 1 do
      commitw t net w (if level then t.wmask.(w) else 0) 0 cm_clock
    done

(* A scheduled clock event, activity-gated: sequential elements whose
   clock/enable net did not change this event are skipped, and readers
   of unchanged clock nets are not woken.  Both skips are exact — a
   FF/latch/ICG re-evaluated with unchanged inputs is idempotent (its
   previous-clock planes were synced the last time the pin moved, and
   reset changes arrive through the normal data settle, not here).
   When gating is on, the scans run over the event's statically planned
   cone ([ev_insts]/[ev_seq]) instead of the whole clock network:
   instances outside the cone cannot have a dirty input this event, so
   skipping them without even checking is exact, and [cones_skipped]
   keeps its meaning (sequential elements that did not capture).  The
   release scan keeps the engine's descending instance order so glitch
   toggle counts stay identical. *)
let apply_clock_event t ev =
  clear_dirty t;
  (* 1. apply clock port levels *)
  Array.iter (fun (net, level) -> set_port t net level) ev.ev_changes;
  (* 2. propagate through the (reachable) clock network in BFS order *)
  propagate_clock_network t ~gated:t.gating
    (if t.gating then ev.ev_insts else t.clock_insts);
  (* 3. simultaneous FF captures + latch transparency transitions, only
     where the clock pin actually moved *)
  let w1 = t.nw = 1 in
  let updated = ref 0 in
  Array.iter
    (fun i ->
      let cn = t.ins.(t.ins_off.(i)) in
      if (not t.gating) || t.net_dirty.(cn) then begin
        incr updated;
        let op = t.opcode.(i) in
        if op = op_ff then (if w1 then ff_update1 t i else ff_updaten t i)
        else if w1 then latch_update1 t i op
        else latch_updaten t i op
      end)
    (if t.gating then ev.ev_seq else t.seq_insts);
  t.cones_skipped <-
    t.cones_skipped + (Array.length t.seq_insts - !updated);
  (* 4. release the new register outputs and settle the data network;
     wake the readers of every clock net that changed in steps 1-2.
     Descending instance order matches the engine's release order (it
     conses pending captures during an ascending scan), keeping worklist
     order — and so glitch toggle counts — identical.  When no element
     updated, every release is a no-op: outputs already match state.
     Releasing only the planned cone is equally exact: an element
     outside it cannot have captured this event, so its output already
     matches its state. *)
  if !updated > 0 then begin
    let rel = if t.gating then ev.ev_seq else t.seq_insts in
    for k = Array.length rel - 1 downto 0 do
      release_seq t rel.(k) cm_wake
    done
  end;
  Array.iter
    (fun (net, _) ->
      if (not t.gating) || t.net_dirty.(net) then wake_net_readers t net)
    ev.ev_changes;
  Array.iter
    (fun out ->
      if (not t.gating) || t.net_dirty.(out) then wake_net_readers t out)
    (if t.gating then ev.ev_outs else t.clock_outs);
  settle t

(* --- Accessors -------------------------------------------------------- *)

let design t = t.design

let lanes t = t.lanes

let words t = t.nw

let cycles t = t.cycle_count

let lane_cycles t = t.cycle_count * t.lanes

let toggles t = t.toggles

let toggles_lane0 t = t.toggles0

let stats t =
  { units = t.n_units;
    fused_ops = t.n_fused;
    stat_waves_skipped = t.waves_skipped;
    stat_cones_skipped = t.cones_skipped }

let net_value t ~lane n =
  if lane < 0 || lane >= t.lanes then invalid_arg "Kernel.net_value: bad lane";
  let k = (n * t.nw) + (lane / 63) in
  let bit = 1 lsl (lane mod 63) in
  if t.x.(k) land bit <> 0 then Logic.LX
  else if t.v.(k) land bit <> 0 then Logic.L1
  else Logic.L0

let output_sample t ~lane =
  List.map
    (fun (port, net) -> (port, net_value t ~lane net))
    t.design.Design.primary_outputs

(* --- Cycle driving ---------------------------------------------------- *)

let stage_touch t n =
  if not t.staged.(n) then begin
    t.staged.(n) <- true;
    t.touched <- n :: t.touched;
    Array.blit t.v (n * t.nw) t.stage_v (n * t.nw) t.nw;
    Array.blit t.x (n * t.nw) t.stage_x (n * t.nw) t.nw
  end

let stage_input t lane (port, value) =
  match Hashtbl.find_opt t.input_index port with
  | None -> invalid_arg (Printf.sprintf "Kernel.run_cycle: unknown input %s" port)
  | Some n ->
    stage_touch t n;
    let k = (n * t.nw) + (lane / 63) in
    let bit = 1 lsl (lane mod 63) in
    (match value with
     | Logic.L0 ->
       t.stage_v.(k) <- t.stage_v.(k) land lnot bit;
       t.stage_x.(k) <- t.stage_x.(k) land lnot bit
     | Logic.L1 ->
       t.stage_v.(k) <- t.stage_v.(k) lor bit;
       t.stage_x.(k) <- t.stage_x.(k) land lnot bit
     | Logic.LX ->
       t.stage_v.(k) <- t.stage_v.(k) land lnot bit;
       t.stage_x.(k) <- t.stage_x.(k) lor bit)

(* broadcast staging sets every lane of the port in one pass per word,
   instead of 63 separate read-modify-writes through the port Hashtbl *)
let stage_broadcast t (port, value) =
  match Hashtbl.find_opt t.input_index port with
  | None -> invalid_arg (Printf.sprintf "Kernel.run_cycle: unknown input %s" port)
  | Some n ->
    stage_touch t n;
    for w = 0 to t.nw - 1 do
      let k = (n * t.nw) + w in
      (match value with
       | Logic.L0 -> t.stage_v.(k) <- 0; t.stage_x.(k) <- 0
       | Logic.L1 -> t.stage_v.(k) <- t.wmask.(w); t.stage_x.(k) <- 0
       | Logic.LX -> t.stage_v.(k) <- 0; t.stage_x.(k) <- t.wmask.(w))
    done

let commit_staged t =
  (* commit in first-touch order, i.e. the lane-0 stimulus port order —
     the same order the scalar engine applies its input list in *)
  let w1 = t.nw = 1 in
  List.iter
    (fun n ->
      t.staged.(n) <- false;
      if w1 then commit1 t n t.stage_v.(n) t.stage_x.(n) cm_wake
      else
        for w = 0 to t.nw - 1 do
          let k = (n * t.nw) + w in
          commitw t n w t.stage_v.(k) t.stage_x.(k) cm_wake
        done)
    (List.rev t.touched);
  t.touched <- []

(* Primary inputs change right after the first rising clock event of the
   cycle, exactly like Engine.run_cycle; the event lists are pre-split
   around that edge at compile time. *)
let run_cycle_apply t apply_inputs =
  List.iter (apply_clock_event t) t.ev_pre;
  apply_inputs ();
  commit_staged t;
  settle t;
  List.iter (apply_clock_event t) t.ev_post;
  t.cycle_count <- t.cycle_count + 1

let run_cycle t (inputs : (string * Logic.t) list array) =
  if Array.length inputs <> t.lanes then
    invalid_arg "Kernel.run_cycle: one input list per lane expected";
  run_cycle_apply t (fun () ->
      Array.iteri (fun lane l -> List.iter (stage_input t lane) l) inputs)

let run_cycle_broadcast t inputs =
  run_cycle_apply t (fun () -> List.iter (stage_broadcast t) inputs)

let sum_toggles t = Array.fold_left ( + ) 0 t.toggles

(* one batch of Obs metrics per stream run — cheap enough to stay on
   unconditionally, coarse enough not to show up in profiles *)
let observe_run t ~cycles_run ~toggles_before ~waves_before ~cones_before =
  Obs.count "sim.kernel.cycles" cycles_run;
  Obs.count "sim.kernel.lane_cycles" (cycles_run * t.lanes);
  Obs.count "sim.kernel.toggles" (sum_toggles t - toggles_before);
  Obs.count "sim.kernel.waves_skipped" (t.waves_skipped - waves_before);
  Obs.count "sim.kernel.cones_skipped" (t.cones_skipped - cones_before)

let run_streams t streams =
  if Array.length streams <> t.lanes then
    invalid_arg "Kernel.run_streams: one stream per lane expected";
  let arrs = Array.map Array.of_list streams in
  let n_cycles = Array.length arrs.(0) in
  Array.iter
    (fun a ->
      if Array.length a <> n_cycles then
        invalid_arg "Kernel.run_streams: lane streams of different lengths")
    arrs;
  let toggles_before = sum_toggles t in
  let waves_before = t.waves_skipped and cones_before = t.cones_skipped in
  Obs.span "sim.kernel.run" (fun () ->
      let cycle_inputs = Array.make t.lanes [] in
      for c = 0 to n_cycles - 1 do
        for l = 0 to t.lanes - 1 do
          cycle_inputs.(l) <- arrs.(l).(c)
        done;
        run_cycle t cycle_inputs
      done);
  observe_run t ~cycles_run:n_cycles ~toggles_before ~waves_before ~cones_before

let run_stream_broadcast t stream =
  let toggles_before = sum_toggles t in
  let waves_before = t.waves_skipped and cones_before = t.cones_skipped in
  Obs.span "sim.kernel.run" (fun () ->
      List.iter (run_cycle_broadcast t) stream);
  observe_run t ~cycles_run:(List.length stream) ~toggles_before ~waves_before
    ~cones_before

(* --- Creation --------------------------------------------------------- *)

let create ?(init = `Zero) ?(lanes = max_lanes) ?(fuse = true) ?(gating = true)
    design ~clocks =
  if lanes < 1 then invalid_arg "Kernel.create: lanes must be positive";
  let n_nets = Design.num_nets design in
  let n_insts = Design.num_insts design in
  let nw = words_of_lanes lanes in
  let wmask = word_masks lanes in
  let compiled = Array.init n_insts (compile_inst design) in
  (* CSR operand and program arrays *)
  let ins_off = Array.make (n_insts + 1) 0 in
  let prog_off = Array.make (n_insts + 1) 0 in
  Array.iteri
    (fun i c ->
      ins_off.(i + 1) <- ins_off.(i) + List.length c.c_ins;
      prog_off.(i + 1) <- prog_off.(i) + List.length c.c_prog)
    compiled;
  let ins = Array.make (max 1 ins_off.(n_insts)) 0 in
  let prog = Array.make (max 1 prog_off.(n_insts)) 0 in
  let opcode = Array.make n_insts 0 in
  let out_net = Array.make n_insts 0 in
  let max_depth = ref 1 in
  Array.iteri
    (fun i c ->
      opcode.(i) <- c.c_op;
      out_net.(i) <- c.c_out;
      List.iteri (fun k n -> ins.(ins_off.(i) + k) <- n) c.c_ins;
      List.iteri (fun k w -> prog.(prog_off.(i) + k) <- w) c.c_prog;
      if c.c_depth > !max_depth then max_depth := c.c_depth)
    compiled;
  let lv = Levelize.compute design in
  let levels = lv.Levelize.level in
  let clock_insts = Levelize.clock_network_order design in
  let clock_outs = Array.map (fun i -> compiled.(i).c_out) clock_insts in
  let seq_insts =
    let l = ref [] in
    for i = n_insts - 1 downto 0 do
      if is_seq_op compiled.(i).c_op then l := i :: !l
    done;
    Array.of_list !l
  in
  (* --- gate fusion: collapse maximal single-fanout combinational trees
     into straight-line units.  An instance can be absorbed when it is
     combinational, outside the clock network, not parked on a
     combinational cycle, and its output net has exactly one sink —
     another absorbable instance.  Such chains always ascend in level,
     so member order is the evaluation order and the root ends up
     last. *)
  let in_clock = Array.make (max 1 n_insts) false in
  Array.iter (fun i -> in_clock.(i) <- true) clock_insts;
  let fusable =
    Array.init n_insts (fun i ->
        fuse
        && compiled.(i).c_op <= op_prog
        && not in_clock.(i)
        && (match lv.Levelize.cyclic_level with
            | Some cl -> levels.(i) <> cl
            | None -> true))
  in
  let parent = Array.make (max 1 n_insts) (-1) in
  Array.iteri
    (fun i c ->
      if fusable.(i) then
        match design.Design.net_sinks.(c.c_out) with
        | [ (j, _) ] when j <> i && fusable.(j) -> parent.(i) <- j
        | _ -> ())
    compiled;
  let root = Array.make (max 1 n_insts) (-1) in
  let rec find_root i =
    if root.(i) >= 0 then root.(i)
    else begin
      let r = if parent.(i) < 0 then i else find_root parent.(i) in
      root.(i) <- r;
      r
    end
  in
  let unit_of = Array.make (max 1 n_insts) (-1) in
  let unit_count = ref 0 in
  for i = 0 to n_insts - 1 do
    let r = find_root i in
    if unit_of.(r) < 0 then begin
      unit_of.(r) <- !unit_count;
      incr unit_count
    end
  done;
  for i = 0 to n_insts - 1 do
    unit_of.(i) <- unit_of.(find_root i)
  done;
  let n_units = !unit_count in
  let mem_lists = Array.make (max 1 n_units) [] in
  for i = n_insts - 1 downto 0 do
    mem_lists.(unit_of.(i)) <- i :: mem_lists.(unit_of.(i))
  done;
  let u_off = Array.make (n_units + 1) 0 in
  for u = 0 to n_units - 1 do
    u_off.(u + 1) <- u_off.(u) + List.length mem_lists.(u)
  done;
  let u_mem = Array.make (max 1 n_insts) 0 in
  let u_level = Array.make (max 1 n_units) 0 in
  for u = 0 to n_units - 1 do
    let sorted =
      List.sort
        (fun a b ->
          let c = compare levels.(a) levels.(b) in
          if c <> 0 then c else compare a b)
        mem_lists.(u)
    in
    List.iteri (fun k i -> u_mem.(u_off.(u) + k) <- i) sorted;
    u_level.(u) <- levels.(u_mem.(u_off.(u + 1) - 1))
  done;
  let n_fused = n_insts - n_units in
  (* CSR fanout, net -> sink units (duplicates preserved, like Engine's
     fanout_insts; wake's in_queue check dedups) *)
  let fo_off = Array.make (n_nets + 1) 0 in
  Array.iteri
    (fun n sinks -> fo_off.(n + 1) <- List.length sinks)
    design.Design.net_sinks;
  for n = 1 to n_nets do
    fo_off.(n) <- fo_off.(n) + fo_off.(n - 1)
  done;
  let fo = Array.make (max 1 fo_off.(n_nets)) 0 in
  Array.iteri
    (fun n sinks ->
      List.iteri (fun k (i, _) -> fo.(fo_off.(n) + k) <- unit_of.(i)) sinks)
    design.Design.net_sinks;
  let input_nets =
    List.filter_map
      (fun (p, n) ->
        if Design.is_clock_port design p then None else Some (p, n))
      design.Design.primary_inputs
  in
  let input_index = Hashtbl.create (List.length input_nets) in
  List.iter (fun (p, n) -> Hashtbl.replace input_index p n) input_nets;
  (* resolve the period's clock events to nets and split them around the
     first rising edge once, instead of per cycle *)
  let period_events = Clock_spec.events clocks in
  let first_rise =
    List.fold_left
      (fun acc (time, changes) ->
        match acc with
        | Some _ -> acc
        | None -> if List.exists snd changes then Some time else None)
      None period_events
  in
  let threshold = Option.value ~default:(-1.0) first_rise in
  let resolve changes =
    Array.of_list
      (List.filter_map
         (fun (port, level) ->
           match Design.find_input design port with
           | Some net -> Some (net, level)
           | None -> None)
         changes)
  in
  (* statically plan each event's reachable clock cone: a fixpoint over
     the clock network marks every instance transitively fed (through
     any input pin — a sound superset) by the event's port nets, and
     every sequential element clocked from inside that cone.  Everything
     else is predicted cold and never scanned at runtime. *)
  let plan_event changes =
    let hot = Array.make (max 1 n_nets) false in
    Array.iter (fun (net, _) -> hot.(net) <- true) changes;
    let in_ev = Array.make (max 1 n_insts) false in
    let grew = ref true in
    while !grew do
      grew := false;
      Array.iter
        (fun i ->
          if (not in_ev.(i)) && not (is_seq_op compiled.(i).c_op) then
            if List.exists (fun n -> hot.(n)) compiled.(i).c_ins then begin
              in_ev.(i) <- true;
              hot.(compiled.(i).c_out) <- true;
              grew := true
            end)
        clock_insts
    done;
    let keep pred arr = Array.of_list (List.filter pred (Array.to_list arr)) in
    let ev_insts = keep (fun i -> in_ev.(i)) clock_insts in
    { ev_changes = changes;
      ev_insts;
      ev_outs = Array.map (fun i -> compiled.(i).c_out) ev_insts;
      ev_seq = keep (fun i -> hot.(List.hd compiled.(i).c_ins)) seq_insts }
  in
  let ev_pre =
    List.filter_map
      (fun (time, ch) ->
        if time <= threshold +. 1e-9 then Some (plan_event (resolve ch))
        else None)
      period_events
  in
  let ev_post =
    List.filter_map
      (fun (time, ch) ->
        if time > threshold +. 1e-9 then Some (plan_event (resolve ch))
        else None)
      period_events
  in
  let st_x_init k = match init with `Zero -> 0 | `X -> wmask.(k mod nw) in
  let t = {
    design;
    clocks;
    lanes;
    nw;
    wmask;
    mask = wmask.(0);
    gating;
    v = Array.make (n_nets * nw) 0;
    x = Array.init (n_nets * nw) (fun k -> wmask.(k mod nw)); (* all X *)
    toggles = Array.make n_nets 0;
    toggles0 = Array.make n_nets 0;
    opcode;
    ins_off;
    ins;
    out_net;
    st_v = Array.make (max 1 (n_insts * nw)) 0;
    st_x = Array.init (max 1 (n_insts * nw)) st_x_init;
    pv_v = Array.make (max 1 (n_insts * nw)) 0;
    pv_x = Array.init (max 1 (n_insts * nw)) (fun k -> wmask.(k mod nw));
    prog_off;
    prog;
    prog_sv = Array.make (!max_depth + 1) 0;
    prog_sx = Array.make (!max_depth + 1) 0;
    n_units;
    u_off;
    u_mem;
    u_level;
    n_fused;
    fo_off;
    fo;
    bq_data = Array.init lv.Levelize.n_buckets (fun _ -> Array.make 8 0);
    bq_head = Array.make lv.Levelize.n_buckets 0;
    bq_tail = Array.make lv.Levelize.n_buckets 0;
    cursor = 0;
    queued = 0;
    in_queue = Array.make (max 1 n_units) false;
    clock_insts;
    clock_outs;
    seq_insts;
    ev_pre;
    ev_post;
    net_dirty = Array.make n_nets false;
    dirty = [];
    input_nets;
    input_index;
    stage_v = Array.make (n_nets * nw) 0;
    stage_x = Array.make (n_nets * nw) 0;
    staged = Array.make n_nets false;
    touched = [];
    cycle_count = 0;
    waves_skipped = 0;
    cones_skipped = 0;
  } in
  let set_planes n nv nx =
    for w = 0 to nw - 1 do
      t.v.((n * nw) + w) <- nv land wmask.(w);
      t.x.((n * nw) + w) <- nx land wmask.(w)
    done
  in
  (* constants *)
  Array.iteri
    (fun n drv ->
      match drv with
      | Design.Driven_const bv -> set_planes n (if bv then -1 else 0) 0
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ())
    design.Design.net_driver;
  (* establish the pre-time-0 state, mirroring Engine.create step for
     step so lane 0's toggle counters stay bit-exact with the engine *)
  let just_before_zero = clocks.Clock_spec.period *. (1.0 -. 1e-7) in
  List.iter
    (fun (port, _) ->
      match Design.find_input design port,
            Clock_spec.level_at clocks port just_before_zero with
      | Some net, Some level -> set_planes net (if level then -1 else 0) 0
      | Some net, None -> set_planes net 0 (-1)
      | None, _ -> ())
    clocks.Clock_spec.ports;
  (match init with
   | `Zero -> List.iter (fun (_, net) -> set_planes net 0 0) t.input_nets
   | `X -> ());
  propagate_clock_network t ~gated:false t.clock_insts;
  Array.iteri
    (fun i op ->
      if is_seq_op op then begin
        let clk = t.ins.(t.ins_off.(i)) in
        let q = t.out_net.(i) in
        for w = 0 to nw - 1 do
          t.pv_v.((i * nw) + w) <- t.v.((clk * nw) + w);
          t.pv_x.((i * nw) + w) <- t.x.((clk * nw) + w);
          t.v.((q * nw) + w) <- t.st_v.((i * nw) + w);
          t.x.((q * nw) + w) <- t.st_x.((i * nw) + w)
        done
      end)
    t.opcode;
  for u = 0 to n_units - 1 do
    if t.opcode.(t.u_mem.(t.u_off.(u))) <= op_prog then wake t u
  done;
  settle t;
  (* clock-gate enable latches behave as if the clocks had always been
     running (see Engine.create) *)
  Array.iteri
    (fun i op ->
      if is_icg_op op then begin
        match init with
        | `Zero ->
          let en = t.ins.(t.ins_off.(i) + 1) in
          for w = 0 to nw - 1 do
            t.st_v.((i * nw) + w) <- t.v.((en * nw) + w);
            t.st_x.((i * nw) + w) <- t.x.((en * nw) + w)
          done
        | `X -> ()
      end)
    t.opcode;
  propagate_clock_network t ~gated:false t.clock_insts;
  for u = 0 to n_units - 1 do
    wake t u
  done;
  settle t;
  clear_dirty t;
  t.waves_skipped <- 0;
  t.cones_skipped <- 0;
  Obs.gauge "sim.kernel.lanes" (float_of_int lanes);
  Obs.gauge "sim.kernel.words" (float_of_int nw);
  Obs.gauge "sim.kernel.instances" (float_of_int n_insts);
  Obs.gauge "sim.kernel.units" (float_of_int n_units);
  Obs.count "sim.kernel.fused_ops" n_fused;
  t
