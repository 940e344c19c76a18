module Design = Netlist.Design

exception Oscillation of string

let max_lanes = Stimulus.max_lanes

(* --- Lane words ------------------------------------------------------

   A net's 3-valued state is two bitplanes packed into one native int
   each: bit [l] of [v] is lane [l]'s value, bit [l] of [x] marks lane
   [l] unknown.  Canonical form: [v land x = 0].  One bitwise pass
   evaluates all 63 independent stimulus lanes, and net [n]'s planes
   are [v.(n)] and [x.(n)].  A caller that wants more lanes runs more
   kernels and adds their toggle arrays: lanes never interact. *)

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

(* the indices [i < n] with [keep i], ascending *)
let indices_where n keep =
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr count
  done;
  let a = Array.make !count 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      a.(!k) <- i;
      incr k
    end
  done;
  a

(* the elements of [a] with [keep], in order *)
let filter keep a =
  Array.map (fun k -> a.(k)) (indices_where (Array.length a) (fun k -> keep a.(k)))

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
let op_ff_ev = 15   (* ins = [clk; d (; rn)]: a flip-flop on an event-only
                       clock that needs no previous-clock planes *)
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
   scanned.  With gating, [ev_seq] also leaves out the registers whose
   update at this event cannot write, and step 4 wakes the readers of
   the event's clock nets from [ev_wake]: the fanout of [ev_nets.(w)]
   is [ev_wake_off.(w)] to [ev_wake_off.(w + 1) - 1], with the wake
   tests of [fo_en], less the registers step 3 handled that no net
   moving in the event's settle can make write (see [plan_events]). *)
type clock_event = {
  ev_changes : (int * bool) array; (* port net, level *)
  ev_insts : int array;   (* reachable clock insts, BFS-order subsequence *)
  ev_seq : int array;     (* seq insts step 3 tests, ascending *)
  ev_nets : int array;    (* port nets, then ev_insts' outputs *)
  ev_wake_off : int array;
  ev_wake : int array;    (* units *)
  ev_wake_en : int array; (* their wake tests, as fo_en *)
}

type t = {
  design : Design.t;
  clocks : Clock_spec.t;
  lanes : int;                (* max_lanes *)
  mask : int;                 (* every lane of the word: -1 *)
  gating : bool;
  (* nets: bitplanes and toggle counters *)
  v : int array;
  x : int array;
  toggles : int array;        (* popcount-summed over all lanes *)
  toggles0 : int array;       (* lane 0 only — the scalar-oracle view *)
  (* instances: flat compiled form *)
  opcode : int array;
  ins_off : int array;        (* CSR into ins, length n_insts+1 *)
  ins : int array;            (* operand nets *)
  out_net : int array;
  st_v : int array;           (* FF/latch state; ICG enable-latch state *)
  st_x : int array;
  (* previous clock planes of the [op_ff] flip-flops, at [pv_at.(i)];
     empty when the kernel has none *)
  pv_at : int array;
  pv_v : int array;
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
  (* graph: CSR fanout net -> sink units (duplicates preserved), less
     the entries the wake rules drop; [fo_en] holds each entry's wake
     test: [-1] wakes always, anything else is a latch enable to test
     (see [transparent]) *)
  fo_off : int array;
  fo : int array;
  fo_en : int array;
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
  (* registers whose state changed at the current event, ascending *)
  changed : int array;
  mutable n_changed : int;
  (* nets in the cone of the observed nets: ['\001'] in, ['\000'] out *)
  net_live : Bytes.t;
  (* non-clock primary inputs, in the design's order, and by name *)
  input_nets : (string * int) list;
  input_index : (string, int) Hashtbl.t;
  mutable cycle_count : int;
  (* activity-gating effectiveness *)
  mutable waves_skipped : int;
  mutable cones_skipped : int;
  mutable evals : int;        (* units the settle loop evaluated *)
  (* settle waves by size since the last flush to Obs: entry [k] counts
     the waves of [k] units *)
  wave_sizes : int array;
}

type stats = {
  units : int;
  fused_ops : int;
  stat_waves_skipped : int;
  stat_cones_skipped : int;
  stat_evals : int;
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

let is_seq_op op = op >= op_ff_ev && op <= op_latch_l

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

(* A latch wake test [g] names the latch's enable net [g lsr 1], with
   bit 0 set when the latch is transparent low.  It passes when the
   enable is transparent on some lane, by [latch_update]'s own test. *)
let transparent t g =
  let en = g lsr 1 in
  if g land 1 = 0 then t.v.(en) <> 0
  else t.mask land lnot (t.v.(en) lor t.x.(en)) <> 0

let wake_net_readers t n =
  for k = t.fo_off.(n) to t.fo_off.(n + 1) - 1 do
    let g = t.fo_en.(k) in
    if g < 0 || transparent t g then wake t t.fo.(k)
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

let commit t n nv nx mode =
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
    if mode = cm_wake then wake_net_readers t n
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

(* --- Instance evaluation ----------------------------------------------- *)

(* comb/ICG instance [i]: evaluate against the current planes and commit
   the output net under [mode].  Each branch commits directly so the hot
   loop never allocates a result tuple.  ICGs also update their
   enable-latch state (mirrors Engine.icg_output). *)
let eval_comb t i op mode =
  let off = t.ins_off.(i) in
  let out = t.out_net.(i) in
  if op = op_inv then
    let n = t.ins.(off) in
    commit t out (not_v t.mask t.v.(n) t.x.(n)) t.x.(n) mode
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
    if op = op_nand then commit t out (not_v t.mask !rv !rx) !rx mode
    else commit t out !rv !rx mode
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
    if op = op_nor then commit t out (not_v t.mask !rv !rx) !rx mode
    else commit t out !rv !rx mode
  end
  else if op = op_xor2 || op = op_xnor2 then begin
    let a = t.ins.(off) and b = t.ins.(off + 1) in
    let rv = xor_v t.v.(a) t.x.(a) t.v.(b) t.x.(b) in
    let rx = xor_x t.x.(a) t.x.(b) in
    if op = op_xnor2 then commit t out (not_v t.mask rv rx) rx mode
    else commit t out rv rx mode
  end
  else if op = op_aoi21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = and_v t.v.(a1) t.v.(a2) in
    let p_x = and_x t.v.(a1) t.x.(a1) t.v.(a2) t.x.(a2) in
    let s_v = or_v p_v t.v.(b) in
    let s_x = or_x p_v p_x t.v.(b) t.x.(b) in
    commit t out (not_v t.mask s_v s_x) s_x mode
  end
  else if op = op_oai21 then begin
    let a1 = t.ins.(off) and a2 = t.ins.(off + 1) and b = t.ins.(off + 2) in
    let p_v = or_v t.v.(a1) t.v.(a2) in
    let p_x = or_x t.v.(a1) t.x.(a1) t.v.(a2) t.x.(a2) in
    let s_v = and_v p_v t.v.(b) in
    let s_x = and_x p_v p_x t.v.(b) t.x.(b) in
    commit t out (not_v t.mask s_v s_x) s_x mode
  end
  else if op = op_mux then begin
    (* (s & b) | (!s & a) *)
    let s = t.ins.(off) and b = t.ins.(off + 1) and a = t.ins.(off + 2) in
    let ns_v = not_v t.mask t.v.(s) t.x.(s) and ns_x = t.x.(s) in
    let l_v = and_v t.v.(s) t.v.(b) in
    let l_x = and_x t.v.(s) t.x.(s) t.v.(b) t.x.(b) in
    let r_v = and_v ns_v t.v.(a) in
    let r_x = and_x ns_v ns_x t.v.(a) t.x.(a) in
    commit t out (or_v l_v r_v) (or_x l_v l_x r_v r_x) mode
  end
  else if op = op_buf then
    let n = t.ins.(off) in
    commit t out t.v.(n) t.x.(n) mode
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
    commit t out sv.(0) sx.(0) mode
  end
  else if op = op_const0 then commit t out 0 0 mode
  else if op = op_const1 then commit t out t.mask 0 mode
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
    commit t out
      (and_v t.v.(ck) t.st_v.(i))
      (and_x t.v.(ck) t.x.(ck) t.st_v.(i) t.st_x.(i))
      mode
  end

(* per-lane mask of reset-asserted lanes (RN a known 0) *)
let reset_mask t i =
  let off = t.ins_off.(i) in
  if t.ins_off.(i + 1) - off > 2 then begin
    let rn = t.ins.(off + 2) in
    t.mask land lnot (t.v.(rn) lor t.x.(rn))
  end
  else 0

(* capture [cap]'s lanes of D and clear the reset-asserted lanes [r] *)
let seq_write t i cap r =
  if cap <> 0 then begin
    let dn = t.ins.(t.ins_off.(i) + 1) in
    t.st_v.(i) <- (t.st_v.(i) land lnot cap) lor (t.v.(dn) land cap);
    t.st_x.(i) <- (t.st_x.(i) land lnot cap) lor (t.x.(dn) land cap)
  end;
  if r <> 0 then begin
    t.st_v.(i) <- t.st_v.(i) land lnot r;
    t.st_x.(i) <- t.st_x.(i) land lnot r
  end

(* update FF state: capture data on lanes with a known 0->1 clock edge,
   clear lanes under reset; advance the previous-clock planes *)
let ff_update t i =
  let clk = t.ins.(t.ins_off.(i)) and s = t.pv_at.(i) in
  let cv = t.v.(clk) and cx = t.x.(clk) in
  let r = reset_mask t i in
  (* canonical planes: cv already implies "known 1" *)
  let rise = lnot t.pv_v.(s) land lnot t.pv_x.(s) land cv in
  seq_write t i (rise land lnot r land t.mask) r;
  t.pv_v.(s) <- cv;
  t.pv_x.(s) <- cx

(* update an [op_ff_ev] flip-flop: its clock moves only at clock events,
   and every event that raises it does so from a known 0 on every lane,
   so step 3 of that event captures on the clock's known-1 lanes
   ([edge]) and no other update sees an edge *)
let ff_event_update t i ~edge =
  let r = reset_mask t i in
  seq_write t i
    (if edge then t.v.(t.ins.(t.ins_off.(i))) land lnot r land t.mask else 0)
    r

(* update latch state: follow data on transparent lanes *)
let latch_update t i op =
  let en = t.ins.(t.ins_off.(i)) in
  let ev = t.v.(en) and ex = t.x.(en) in
  let r = reset_mask t i in
  let trans =
    if op = op_latch_h then ev else t.mask land lnot (ev lor ex)
  in
  seq_write t i (trans land lnot r land t.mask) r

(* a register's update at step 3 of a clock event *)
let seq_update_at_event t i =
  let op = t.opcode.(i) in
  if op = op_ff_ev then ff_event_update t i ~edge:true
  else if op = op_ff then ff_update t i
  else latch_update t i op

(* release a sequential element's state onto its output net *)
let release_seq t i mode = commit t t.out_net.(i) t.st_v.(i) t.st_x.(i) mode

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

let eval_inst_seq t i op =
  if op = op_ff_ev then ff_event_update t i ~edge:false
  else if op = op_ff then ff_update t i
  else latch_update t i op;
  release_seq t i cm_wake

let eval_unit t u =
  let first = t.u_off.(u) and last = t.u_off.(u + 1) - 1 in
  if first = last then begin
    let i = t.u_mem.(first) in
    let op = t.opcode.(i) in
    if is_seq_op op then eval_inst_seq t i op
    else eval_comb t i op cm_wake
  end
  else
    for k = first to last do
      let i = t.u_mem.(k) in
      eval_comb t i t.opcode.(i) (if k = last then cm_wake else cm_fused)
    done

let settle t =
  if t.queued = 0 then
    (* an entire settle wave with nothing to do — the phase's activity
       gating left this cone untouched *)
    t.waves_skipped <- t.waves_skipped + 1
  else begin
    let budget = 64 * (Design.num_insts t.design + 16) in
    let steps = ref 0 in
    (* one wave-size count per cursor arrival at a bucket: comb buckets
       receive wakes only from strictly lower levels, so their occupancy
       is final when the cursor reaches them *)
    let c_prev = ref (-1) in
    while t.queued > 0 do
      while t.bq_head.(t.cursor) = t.bq_tail.(t.cursor) do
        t.cursor <- t.cursor + 1
      done;
      let c = t.cursor in
      if c <> !c_prev then begin
        c_prev := c;
        let size = t.bq_tail.(c) - t.bq_head.(c) in
        t.wave_sizes.(size) <- t.wave_sizes.(size) + 1
      end;
      incr steps;
      let u = pop t in
      t.in_queue.(u) <- false;
      eval_unit t u;
      if !steps > budget then
        raise (Oscillation
                 (Printf.sprintf "design %s failed to settle"
                    t.design.Design.design_name))
    done;
    t.evals <- t.evals + !steps
  end

(* one weighted histogram sample per wave size counted since the last
   flush *)
let flush_wave_sizes t =
  Array.iteri
    (fun size n ->
      if n > 0 then begin
        Obs.hist ~n "sim.kernel.wave.units" (float_of_int size);
        t.wave_sizes.(size) <- 0
      end)
    t.wave_sizes

(* --- Clock events ----------------------------------------------------- *)

(* Re-evaluate (a planned subsequence of) the clock network in BFS
   order.  When [gated], an instance none of whose input nets changed
   this event is skipped: its output and (for ICGs) enable-latch state
   are already consistent, because enable changes arriving between
   events re-evaluate it through the ordinary settle worklist. *)
let propagate_clock_network t ~gated insts =
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
        if live then eval_comb t i op cm_clock
      end)
    insts

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
   keeps its meaning (sequential elements that did not capture, or that
   the plan left out because they cannot).  The release scan keeps the
   engine's descending instance order so glitch toggle counts stay
   identical. *)
let apply_clock_event t ev =
  clear_dirty t;
  (* 1. apply clock port levels *)
  Array.iter
    (fun (net, level) -> commit t net (if level then t.mask else 0) 0 cm_clock)
    ev.ev_changes;
  (* 2. propagate through the (reachable) clock network in BFS order *)
  propagate_clock_network t ~gated:t.gating
    (if t.gating then ev.ev_insts else t.clock_insts);
  (* 3. simultaneous FF captures + latch transparency transitions, only
     where the clock pin actually moved; record, in ascending order, the
     elements whose state changed *)
  let updated = ref 0 in
  t.n_changed <- 0;
  Array.iter
    (fun i ->
      let cn = t.ins.(t.ins_off.(i)) in
      if (not t.gating) || t.net_dirty.(cn) then begin
        incr updated;
        let sv = t.st_v.(i) and sx = t.st_x.(i) in
        seq_update_at_event t i;
        if t.st_v.(i) <> sv || t.st_x.(i) <> sx then begin
          t.changed.(t.n_changed) <- i;
          t.n_changed <- t.n_changed + 1
        end
      end)
    (if t.gating then ev.ev_seq else t.seq_insts);
  t.cones_skipped <-
    t.cones_skipped + (Array.length t.seq_insts - !updated);
  (* 4. release the new register outputs and settle the data network;
     wake the readers of every clock net that changed in steps 1-2.
     Descending instance order matches the engine's release order (it
     conses pending captures during an ascending scan), keeping worklist
     order — and so glitch toggle counts — identical.  A register's
     output equals its state after its last evaluation, so releasing an
     element whose state did not change is a no-op; with gating on only
     the changed ones are released, in the same relative order, and the
     wakes come from the event's planned lists. *)
  if t.gating then begin
    for k = t.n_changed - 1 downto 0 do
      release_seq t t.changed.(k) cm_wake
    done;
    for w = 0 to Array.length ev.ev_nets - 1 do
      if t.net_dirty.(ev.ev_nets.(w)) then
        for k = ev.ev_wake_off.(w) to ev.ev_wake_off.(w + 1) - 1 do
          let g = ev.ev_wake_en.(k) in
          if g < 0 || transparent t g then wake t ev.ev_wake.(k)
        done
    done
  end
  else begin
    if !updated > 0 then
      for k = Array.length t.seq_insts - 1 downto 0 do
        release_seq t t.seq_insts.(k) cm_wake
      done;
    Array.iter (fun (net, _) -> wake_net_readers t net) ev.ev_changes;
    Array.iter (wake_net_readers t) t.clock_outs
  end;
  settle t

(* --- Accessors -------------------------------------------------------- *)

let design t = t.design

let lanes t = t.lanes

let cycles t = t.cycle_count

let lane_cycles t = t.cycle_count * t.lanes

let toggles t = t.toggles

let toggles_lane0 t = t.toggles0

let stats t =
  { units = t.n_units;
    fused_ops = t.n_fused;
    stat_waves_skipped = t.waves_skipped;
    stat_cones_skipped = t.cones_skipped;
    stat_evals = t.evals }

let net_value t ~lane n =
  if lane < 0 || lane >= t.lanes then invalid_arg "Kernel.net_value: bad lane";
  let bit = 1 lsl lane in
  if t.x.(n) land bit <> 0 then Logic.LX
  else if t.v.(n) land bit <> 0 then Logic.L1
  else Logic.L0

let output_sample t ~lane =
  List.map
    (fun (port, net) -> (port, net_value t ~lane net))
    t.design.Design.primary_outputs

(* --- Cycle driving ---------------------------------------------------- *)

let input_net t ~caller port =
  match Hashtbl.find_opt t.input_index port with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "%s: unknown input %s" caller port)

let in_cone t n = Bytes.get t.net_live n <> '\000'

(* Primary inputs change right after the first rising clock event of the
   cycle, exactly like Engine.run_cycle; the event lists are pre-split
   around that edge at compile time.  [commit_inputs] commits the
   cycle's input words one net at a time, in the caller's input order:
   the order the engine applies its input list in, so the worklist
   order and the glitch toggle counts match it. *)
let run_cycle t commit_inputs =
  List.iter (apply_clock_event t) t.ev_pre;
  commit_inputs ();
  settle t;
  List.iter (apply_clock_event t) t.ev_post;
  t.cycle_count <- t.cycle_count + 1

let run_cycle_broadcast t inputs =
  let planes =
    List.filter_map
      (fun (port, value) ->
        let n = input_net t ~caller:"Kernel.run_cycle_broadcast" port in
        if not (in_cone t n) then None
        else
          match value with
          | Logic.L0 -> Some (n, 0, 0)
          | Logic.L1 -> Some (n, t.mask, 0)
          | Logic.LX -> Some (n, 0, t.mask))
      inputs
  in
  run_cycle t (fun () ->
      List.iter (fun (n, v, x) -> commit t n v x cm_wake) planes);
  flush_wave_sizes t

let sum_toggles t = Array.fold_left ( + ) 0 t.toggles

(* one batch of Obs metrics per stream run — cheap enough to stay on
   unconditionally, coarse enough not to show up in profiles *)
let observe_run t ~cycles_run ~toggles_before (before : stats) =
  Obs.count "sim.kernel.cycles" cycles_run;
  Obs.count "sim.kernel.lane_cycles" (cycles_run * t.lanes);
  Obs.count "sim.kernel.toggles" (sum_toggles t - toggles_before);
  Obs.count "sim.kernel.waves_skipped"
    (t.waves_skipped - before.stat_waves_skipped);
  Obs.count "sim.kernel.cones_skipped"
    (t.cones_skipped - before.stat_cones_skipped);
  Obs.count "sim.kernel.evals" (t.evals - before.stat_evals);
  flush_wave_sizes t

(* The one loop that drives lanes apart: the draw's input names resolve
   to nets once, then each cycle commits each input's word as it is —
   the word already holds every lane's value, and a draw never carries
   X, so the unknown plane is 0.  Inputs outside the cone are neither
   drawn nor committed: no instance of the cone reads them.  After each
   cycle the planes of [sampled] are copied out, cycle-major. *)
let run_sampled t (p : Stimulus.packed) sampled =
  if p.lanes <> t.lanes then
    invalid_arg
      (Printf.sprintf "Kernel.run: a draw of %d lanes, the kernel has %d"
         p.lanes t.lanes);
  let nets = Array.map (input_net t ~caller:"Kernel.run") p.inputs in
  Array.iter
    (fun n ->
      if not (in_cone t n) then
        invalid_arg
          (Printf.sprintf "Kernel.run_sampled: net %s is outside the cone"
             (Design.net_name t.design n)))
    sampled;
  let m = Array.length sampled in
  (* positions in [p.inputs] of the inputs the cone reads, their nets
     and their words *)
  let driven = indices_where (Array.length nets) (fun k -> in_cone t nets.(k)) in
  let driven_nets = Array.map (fun k -> nets.(k)) driven in
  let words = Stimulus.columns p driven in
  let sv = Array.make (p.cycles * m) 0 and sx = Array.make (p.cycles * m) 0 in
  let toggles_before = sum_toggles t and before = stats t in
  Obs.span "sim.kernel.run" (fun () ->
      for c = 0 to p.cycles - 1 do
        run_cycle t (fun () ->
            for j = 0 to Array.length driven_nets - 1 do
              commit t driven_nets.(j) words.(j).(c) 0 cm_wake
            done);
        let at = c * m in
        for j = 0 to m - 1 do
          sv.(at + j) <- t.v.(sampled.(j));
          sx.(at + j) <- t.x.(sampled.(j))
        done
      done);
  observe_run t ~cycles_run:p.cycles ~toggles_before before;
  (sv, sx)

let run t p = ignore (run_sampled t p [||] : int array * int array)

let run_streams t streams = run t (Stimulus.pack streams)

(* --- Event plans ------------------------------------------------------

   Clock levels are bytes: a known 0, a known 1, or unknown. *)

let lv_0 = '\000'
let lv_1 = '\001'
let lv_x = '\002'

(* [walk lv ~ports ~clock_insts ...] writes into [lv] the level every
   clock-network net holds after steps 1-2 of an event that leaves the
   clock port nets at [ports]: a buffer passes its input's level, an
   inverter negates it, an ICG's GCK is 0 where its CK is 0 (whatever
   its enable latch holds) and unknown elsewhere, and any other cell
   gives unknown.  [clock_insts] is in BFS order, so each walked input
   is set before its reader; nets off the network keep their byte. *)
let walk lv ~ports ~clock_insts ~opcode ~ins_off ~ins ~out_net =
  Array.iter (fun (net, level) -> Bytes.set lv net (if level then lv_1 else lv_0)) ports;
  Array.iter
    (fun i ->
      let op = opcode.(i) in
      Bytes.set lv out_net.(i)
        (if op = op_buf then Bytes.get lv ins.(ins_off.(i))
         else if op = op_inv then
           (let l = Bytes.get lv ins.(ins_off.(i)) in
            if l = lv_0 then lv_1 else if l = lv_1 then lv_0 else lv_x)
         else if is_icg_op op && Bytes.get lv ins.(ins_off.(i)) = lv_0 then lv_0
         else lv_x))
    clock_insts

(* Plan every event of the period, in order ([changes.(j)] are event
   [j]'s port nets and levels).  Each plan holds the event's reach: a
   fixpoint over the clock network marks every instance transitively fed
   (through any input pin — a sound superset) by the event's port nets,
   and every register clocked from inside that cone.

   With [gating] it also holds what the event's clock levels ([walk])
   allow.  A register's update at step 3 writes only on the lanes where
   it captures (a reset-asserted lane was cleared when its reset came
   on, through the settle's wake), so:
   - a latch whose enable the event leaves opaque, and a flip-flop on
     an event-only clock left at 0, are left out of [ev_seq] (unless
     they have a reset pin, which could be a clock net);
   - a flip-flop on an event-only clock needs no previous-clock planes
     when every event that can move its clock leaves it at 0 or raises
     it from a known 0 (the level the previous event, cyclically, left;
     the first event of a run follows [create]'s pre-time-0 state, and
     both are checked): its opcode becomes [op_ff_ev].
   Then the nets that can still move during the event's settle: the
   forward closure from the outputs of the registers that can capture,
   of logic reading a clock net and of clock-network instances that
   step 2 evaluated before one of their inputs' drivers, through logic,
   through ICGs by style (standard: if CK moves; M1: if CK or P3 moves,
   or EN moves while P3 can be 1; M2: if CK moves, or EN moves while CK
   can be 1), through latches whose enable or reset moves or whose D
   moves while they can be transparent, and through flip-flops whose
   CK or reset moves.  Step 4's wake list leaves out a register woken
   through its clock or enable pin when no pin it reacts to can move:
   step 3 updated it (or left it out exactly) whenever that pin's net
   moved, so each of its evaluations in the settle would write nothing,
   and an evaluation that writes nothing changes no value and no other
   unit's place in the worklist. *)
let plan_events ~gating ~(design : Design.t) ~compiled ~opcode ~ins_off ~ins
    ~out_net ~live ~net_live ~in_clock ~clock_insts ~seq_insts ~event_only
    ~rule ~unit_of ~clocks ~just_before_zero changes =
  let n_nets = max 1 (Design.num_nets design) in
  let pin i k = ins.(ins_off.(i) + k) in
  (* a register's reset pin, an M1 ICG's P3 pin *)
  let has_pin3 i = ins_off.(i + 1) - ins_off.(i) > 2 in
  (* one mark buffer for every walk below, cleared after each *)
  let marks = Bytes.make n_nets '\000' in
  let marked n = Bytes.get marks n <> '\000' in
  let mark n = Bytes.set marks n '\001' and unmark n = Bytes.set marks n '\000' in
  let reads_marked i =
    let hit = ref false in
    for k = ins_off.(i) to ins_off.(i + 1) - 1 do
      if marked ins.(k) then hit := true
    done;
    !hit
  in
  let reach ch =
    Array.iter (fun (net, _) -> mark net) ch;
    let grew = ref true in
    while !grew do
      grew := false;
      Array.iter
        (fun i ->
          if (not (marked out_net.(i))) && reads_marked i then begin
            mark out_net.(i);
            grew := true
          end)
        clock_insts
    done;
    let ev_insts = filter (fun i -> marked out_net.(i)) clock_insts in
    let ev_seq = filter (fun i -> marked (pin i 0)) seq_insts in
    Array.iter (fun (net, _) -> unmark net) ch;
    Array.iter (fun i -> unmark out_net.(i)) ev_insts;
    (ev_insts, ev_seq)
  in
  let plan ch (ev_insts, ev_seq) ~ev_nets ~ev_wake_off ~ev_wake ~ev_wake_en =
    { ev_changes = ch; ev_insts; ev_seq; ev_nets; ev_wake_off; ev_wake;
      ev_wake_en }
  in
  (* without gating, an event scans the whole clock network and every
     register, and wakes every reader of a clock net *)
  if not gating then
    Array.map
      (fun ch ->
        plan ch ([||], [||]) ~ev_nets:[||] ~ev_wake_off:[||] ~ev_wake:[||]
          ~ev_wake_en:[||])
      changes
  else begin
    let reaches = Array.map reach changes in
    let n_events = Array.length changes in
    (* the live clock ports, and their levels before the first event and
       after each event *)
    let ports =
      Array.of_list
        (List.filter_map
           (fun (port, _) ->
             match Design.find_input design port,
                   Clock_spec.level_at clocks port just_before_zero with
             | Some net, Some level
               when Design.is_clock_port design port
                    && Bytes.get net_live net <> '\000' ->
               Some (net, level)
             | (Some _ | None), _ -> None)
           clocks.Clock_spec.ports)
    in
    let after = Array.make (n_events + 1) ports in
    Array.iteri
      (fun j ch ->
        after.(j + 1) <-
          Array.map
            (fun (net, level) ->
              match Array.find_opt (fun (n, _) -> n = net) ch with
              | Some (_, l) -> (net, l)
              | None -> (net, level))
            after.(j))
      changes;
    (* [after.(0)] is the pre-time-0 state; event [j] leaves
       [after.(j + 1)] *)
    let walk_to lv j =
      walk lv ~ports:after.(j) ~clock_insts ~opcode ~ins_off ~ins ~out_net
    in
    let lv = Bytes.make n_nets lv_x and prev = Bytes.make n_nets lv_x in
    (* flip-flops on event-only clocks that some event raises from a
       level other than a known 0 keep their previous-clock planes *)
    let keeps_planes = Bytes.make (max 1 (Array.length opcode)) '\000' in
    let check j ~before =
      walk_to prev before;
      walk_to lv (j + 1);
      Array.iter
        (fun i ->
          let ck = pin i 0 in
          if Bytes.get lv ck <> lv_0 && Bytes.get prev ck <> lv_0 then
            Bytes.set keeps_planes i '\001')
        (snd reaches.(j))
    in
    for j = 0 to n_events - 1 do
      check j ~before:j
    done;
    if n_events > 0 then check 0 ~before:n_events;
    Array.iter
      (fun i ->
        if opcode.(i) = op_ff && event_only.(pin i 0)
           && Bytes.get keeps_planes i = '\000'
        then opcode.(i) <- op_ff_ev)
      seq_insts;
    (* which clock-network instances step 2 may evaluate before one of
       their inputs' drivers *)
    let early = Bytes.make (max 1 (Array.length opcode)) '\000' in
    Array.iter
      (fun i ->
        for k = ins_off.(i) to ins_off.(i + 1) - 1 do
          match design.Design.net_driver.(ins.(k)) with
          | Design.Driven_by (j, _) when in_clock.(j) && not (marked out_net.(j)) ->
            Bytes.set early i '\001'
          | Design.Driven_by _ | Design.Driven_by_input _ | Design.Driven_const _
          | Design.Undriven -> ()
        done;
        mark out_net.(i))
      clock_insts;
    Array.iter (fun i -> unmark out_net.(i)) clock_insts;
    let queue = Array.make n_nets 0 and tail = ref 0 in
    let push n =
      if not (marked n) then begin
        mark n;
        queue.(!tail) <- n;
        incr tail
      end
    in
    (* the functions below read the levels [lv] of the event planned *)
    let level n = Bytes.get lv n in
    (* the register can pass data on some lane after the event *)
    let can_open i =
      let l = level (pin i 0) in
      if compiled.(i).c_op = op_latch_l then l <> lv_1 else l <> lv_0
    in
    let can_write i = has_pin3 i || can_open i in
    (* a move of net [n] can move instance [i]'s output: any input of
       logic; the clock or enable pin, a register's reset and an M1
       ICG's P3 always; an M1 ICG's EN while P3 can be 1, an M2 ICG's EN
       while CK can be 1 and a latch's D while it can be transparent *)
    let moves i n =
      let op = compiled.(i).c_op and off = ins_off.(i) in
      op <= op_prog || n = ins.(off)
      || (has_pin3 i && n = ins.(off + 2))
      || n = ins.(off + 1)
         && (if op = op_icg_m1 then (not (has_pin3 i)) || level ins.(off + 2) <> lv_0
             else if op = op_icg_m2 then level ins.(off) <> lv_0
             else (op = op_latch_h || op = op_latch_l) && can_open i)
    in
    let rec spread n = function
      | [] -> ()
      | (i, _) :: rest ->
        if live i && moves i n then push out_net.(i);
        spread n rest
    in
    (* a reader of clock net [w] whose output can move in the settle
       whatever step 3 did: logic, a register reading [w] through
       another pin, and a clock-network instance step 2 may evaluate
       early *)
    let rec seed w = function
      | [] -> ()
      | (i, _) :: rest ->
        if live i then
          if is_seq_op compiled.(i).c_op then begin
            if pin i 0 <> w then push out_net.(i)
          end
          else if (not in_clock.(i)) || Bytes.get early i <> '\000' then
            push out_net.(i);
        seed w rest
    in
    let writes_in_settle i =
      let hit = ref false in
      for k = ins_off.(i) to ins_off.(i + 1) - 1 do
        if marked ins.(k) && moves i ins.(k) then hit := true
      done;
      !hit
    in
    (* [fo]'s entries of clock net [net], less the registers woken
       through their clock pin that no moving net can make write *)
    let rec wakes f w net = function
      | [] -> ()
      | (i, _) :: rest ->
        if live i && rule.(i) <> -2
           && not (is_seq_op compiled.(i).c_op && pin i 0 = net
                   && not (writes_in_settle i))
        then f w i;
        wakes f w net rest
    in
    Array.mapi
      (fun j ch ->
        let ev_insts, ev_seq = reaches.(j) in
        walk_to lv (j + 1);
        let ev_nets =
          Array.append (Array.map fst ch) (Array.map (fun i -> out_net.(i)) ev_insts)
        in
        (* the settle's moving nets: the forward closure of the outputs
           of the registers that can capture and of [seed]'s readers *)
        tail := 0;
        Array.iter (fun i -> if can_write i then push out_net.(i)) ev_seq;
        Array.iter (fun w -> seed w design.Design.net_sinks.(w)) ev_nets;
        let head = ref 0 in
        while !head < !tail do
          let n = queue.(!head) in
          incr head;
          spread n design.Design.net_sinks.(n)
        done;
        (* step 4's wake list, in [fo]'s order *)
        let entries f =
          Array.iteri (fun w net -> wakes f w net design.Design.net_sinks.(net)) ev_nets
        in
        let ev_wake_off = Array.make (Array.length ev_nets + 1) 0 in
        entries (fun w _ -> ev_wake_off.(w + 1) <- ev_wake_off.(w + 1) + 1);
        for w = 1 to Array.length ev_nets do
          ev_wake_off.(w) <- ev_wake_off.(w) + ev_wake_off.(w - 1)
        done;
        let n_wake = ev_wake_off.(Array.length ev_nets) in
        let ev_wake = Array.make n_wake 0 and ev_wake_en = Array.make n_wake 0 in
        let k = ref 0 in
        entries (fun _ i ->
            ev_wake.(!k) <- unit_of.(i);
            ev_wake_en.(!k) <- rule.(i);
            incr k);
        for q = 0 to !tail - 1 do
          unmark queue.(q)
        done;
        (* an [op_ff] flip-flop still syncs its previous clock *)
        let ev_seq = filter (fun i -> can_write i || opcode.(i) = op_ff) ev_seq in
        plan ch (ev_insts, ev_seq) ~ev_nets ~ev_wake_off ~ev_wake ~ev_wake_en)
      changes
  end

(* --- Creation --------------------------------------------------------- *)

let create ?(init = `Zero) ?(fuse = true) ?(gating = true) ?observe design
    ~clocks =
  Obs.span "sim.kernel.create" @@ fun () ->
  let n_nets = Design.num_nets design in
  let n_insts = Design.num_insts design in
  let mask = -1 in
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
  let clock_insts = (Netlist.Clocking.network design).Netlist.Clocking.insts in
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
  (* --- the cone: with [observe], the fan-in closure of those nets over
     whole units.  A unit is live when it drives an observed net or a
     net that a live unit reads through any pin (data, clock, enable,
     reset, P3); every member of a live unit is live.  A dead unit then
     writes no net that a live unit reads, so dropping it keeps every
     live evaluation, in order.  [net_live] marks the nets the live
     units read or write and the observed nets. *)
  let live_unit = Bytes.make (max 1 n_units) '\001' in
  let net_live = Bytes.make (max 1 n_nets) '\001' in
  (match observe with
   | None -> ()
   | Some nets ->
     Bytes.fill live_unit 0 (Bytes.length live_unit) '\000';
     Bytes.fill net_live 0 (Bytes.length net_live) '\000';
     let stack = Array.make (max 1 n_units) 0 and top = ref 0 in
     let reach n =
       Bytes.set net_live n '\001';
       match design.Design.net_driver.(n) with
       | Design.Driven_by (i, _) ->
         let u = unit_of.(i) in
         if Bytes.get live_unit u = '\000' then begin
           Bytes.set live_unit u '\001';
           stack.(!top) <- u;
           incr top
         end
       | Design.Driven_by_input _ | Design.Driven_const _ | Design.Undriven -> ()
     in
     Array.iter
       (fun n ->
         if n < 0 || n >= n_nets then
           invalid_arg
             (Printf.sprintf "Kernel.create: observes net %d of a design of %d"
                n n_nets);
         reach n)
       nets;
     while !top > 0 do
       decr top;
       let u = stack.(!top) in
       for k = u_off.(u) to u_off.(u + 1) - 1 do
         let i = u_mem.(k) in
         Bytes.set net_live out_net.(i) '\001';
         for p = ins_off.(i) to ins_off.(i + 1) - 1 do
           reach ins.(p)
         done
       done
     done);
  let unit_live u = Bytes.get live_unit u <> '\000' in
  let live i = unit_live unit_of.(i) in
  let clock_insts = filter live clock_insts in
  let clock_outs = Array.map (fun i -> out_net.(i)) clock_insts in
  let seq_insts = indices_where n_insts (fun i -> is_seq_op opcode.(i) && live i) in
  (* --- wake rules (on with [gating]).  Event-only nets change only at
     a clock event's steps 1-2: the design's clock ports (a run commits
     only non-clock inputs), the output of a clock-network buffer or
     inverter whose input is event-only, and the GCK of a standard ICG
     whose CK is event-only (its enable latch loads only on lanes where
     CK is a known 0, where GCK is 0 before and after the load).
     [clock_insts] is in BFS order, so each input is classified before
     its reader.  A reader whose evaluation during a settle provably
     writes nothing is woken less:
     - a flip-flop without reset clocked by an event-only net never
       (step 3 syncs its previous clock at every event that moves CK, so
       a settle shows it no edge);
     - a latch without reset enabled by an event-only net only while
       that enable is transparent on some lane (the enable holds through
       a settle, so the test at wake time is the test at evaluation);
     - a clock-network buffer or inverter on an event-only net never
       (step 2 evaluated it already).
     A dropped wake's pins all share its fate through the settle, so no
     later wake re-queues the element at another worklist position:
     every evaluation that writes keeps its place.  Elements with a
     reset pin keep every wake. *)
  let event_only = Array.make (max 1 n_nets) false in
  if gating then begin
    List.iter
      (fun p ->
        match Design.find_input design p with
        | Some n -> event_only.(n) <- true
        | None -> ())
      design.Design.clock_ports;
    Array.iter
      (fun i ->
        let c = compiled.(i) in
        if (c.c_op = op_buf || c.c_op = op_inv || c.c_op = op_icg_std)
           && event_only.(List.hd c.c_ins)
        then event_only.(c.c_out) <- true)
      clock_insts
  end;
  (* per instance: [-2] never woken, [-1] always, else a latch's enable
     test for [transparent] *)
  let wake_rule i =
    let c = compiled.(i) in
    match c.c_ins with
    | [ck; _] when c.c_op = op_ff && event_only.(ck) -> -2
    | [en; _] when c.c_op = op_latch_h && event_only.(en) -> 2 * en
    | [en; _] when c.c_op = op_latch_l && event_only.(en) -> (2 * en) + 1
    | [a] when (c.c_op = op_buf || c.c_op = op_inv) && in_clock.(i)
               && event_only.(a) -> -2
    | _ -> -1
  in
  let rule = Array.init n_insts wake_rule in
  (* CSR fanout, net -> live sink units (duplicates preserved, like
     Engine's fanout_insts; wake's in_queue check dedups) *)
  let kept (i, _) = live i && rule.(i) <> -2 in
  let fo_off = Array.make (n_nets + 1) 0 in
  Array.iteri
    (fun n sinks ->
      fo_off.(n + 1) <-
        fo_off.(n) + List.fold_left (fun c s -> if kept s then c + 1 else c) 0 sinks)
    design.Design.net_sinks;
  let fo = Array.make (max 1 fo_off.(n_nets)) 0 in
  let fo_en = Array.make (max 1 fo_off.(n_nets)) (-1) in
  Array.iteri
    (fun n sinks ->
      let k = ref fo_off.(n) in
      List.iter
        (fun ((i, _) as s) ->
          if kept s then begin
            fo.(!k) <- unit_of.(i);
            fo_en.(!k) <- rule.(i);
            incr k
          end)
        sinks)
    design.Design.net_sinks;
  let input_nets =
    List.filter_map
      (fun (p, n) ->
        if Design.is_clock_port design p then None else Some (p, n))
      design.Design.primary_inputs
  in
  let input_index = Hashtbl.create (List.length input_nets) in
  List.iter (fun (p, n) -> Hashtbl.replace input_index p n) input_nets;
  (* resolve the period's clock events to nets once, instead of per
     cycle *)
  let resolve changes =
    Array.of_list
      (List.filter_map
         (fun (port, level) ->
           match Design.find_input design port with
           | Some net when Bytes.get net_live net <> '\000' -> Some (net, level)
           | Some _ | None -> None)
         changes)
  in
  let period_events = Clock_spec.events clocks in
  let events =
    Array.of_list (List.map (fun (time, ch) -> (time, resolve ch)) period_events)
  in
  let just_before_zero = clocks.Clock_spec.period *. (1.0 -. 1e-7) in
  let plans =
    plan_events ~gating ~design ~compiled ~opcode ~ins_off ~ins ~out_net ~live
      ~net_live ~in_clock ~clock_insts ~seq_insts ~event_only ~rule ~unit_of
      ~clocks ~just_before_zero (Array.map snd events)
  in
  (* split the events around the period's first rising edge, of any
     clock port, in the cone or not *)
  let first_rise =
    List.fold_left
      (fun acc (time, changes) ->
        match acc with
        | Some _ -> acc
        | None -> if List.exists snd changes then Some time else None)
      None period_events
  in
  let threshold = Option.value ~default:(-1.0) first_rise in
  let split pre =
    List.filteri
      (fun j _ -> (fst events.(j) <= threshold +. 1e-9) = pre)
      (Array.to_list plans)
  in
  let ev_pre = split true and ev_post = split false in
  (* previous clock planes for the flip-flops that kept [op_ff] *)
  let n_pv = ref 0 in
  let pv_at =
    if Array.exists (fun i -> opcode.(i) = op_ff) seq_insts then begin
      let a = Array.make n_insts (-1) in
      Array.iter
        (fun i ->
          if opcode.(i) = op_ff then begin
            a.(i) <- !n_pv;
            incr n_pv
          end)
        seq_insts;
      a
    end
    else [||]
  in
  let t = {
    design;
    clocks;
    lanes = max_lanes;
    mask;
    gating;
    v = Array.make n_nets 0;
    x = Array.make n_nets mask; (* all X *)
    toggles = Array.make n_nets 0;
    toggles0 = Array.make n_nets 0;
    opcode;
    ins_off;
    ins;
    out_net;
    st_v = Array.make (max 1 n_insts) 0;
    st_x = Array.make (max 1 n_insts) (match init with `Zero -> 0 | `X -> mask);
    pv_at;
    pv_v = Array.make !n_pv 0;
    pv_x = Array.make !n_pv mask;
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
    fo_en;
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
    changed = Array.make (max 1 (Array.length seq_insts)) 0;
    n_changed = 0;
    net_live;
    input_nets;
    input_index;
    cycle_count = 0;
    waves_skipped = 0;
    cones_skipped = 0;
    evals = 0;
    wave_sizes = Array.make (n_units + 1) 0;
  } in
  let set_planes n nv nx =
    t.v.(n) <- nv;
    t.x.(n) <- nx
  in
  (* constants *)
  Array.iteri
    (fun n drv ->
      match drv with
      | Design.Driven_const bv -> set_planes n (if bv then mask else 0) 0
      | Design.Driven_by _ | Design.Driven_by_input _ | Design.Undriven -> ())
    design.Design.net_driver;
  (* establish the pre-time-0 state, mirroring Engine.create step for
     step so lane 0's toggle counters stay bit-exact with the engine *)
  List.iter
    (fun (port, _) ->
      match Design.find_input design port,
            Clock_spec.level_at clocks port just_before_zero with
      | Some net, Some level -> set_planes net (if level then mask else 0) 0
      | Some net, None -> set_planes net 0 mask
      | None, _ -> ())
    clocks.Clock_spec.ports;
  (match init with
   | `Zero -> List.iter (fun (_, net) -> set_planes net 0 0) t.input_nets
   | `X -> ());
  propagate_clock_network t ~gated:false t.clock_insts;
  Array.iter
    (fun i ->
      let clk = t.ins.(t.ins_off.(i)) in
      let q = t.out_net.(i) in
      if t.opcode.(i) = op_ff then begin
        t.pv_v.(t.pv_at.(i)) <- t.v.(clk);
        t.pv_x.(t.pv_at.(i)) <- t.x.(clk)
      end;
      t.v.(q) <- t.st_v.(i);
      t.x.(q) <- t.st_x.(i))
    t.seq_insts;
  for u = 0 to n_units - 1 do
    if unit_live u && t.opcode.(t.u_mem.(t.u_off.(u))) <= op_prog then wake t u
  done;
  settle t;
  (* clock-gate enable latches behave as if the clocks had always been
     running (see Engine.create) *)
  Array.iteri
    (fun i op ->
      if is_icg_op op && live i then begin
        match init with
        | `Zero ->
          let en = t.ins.(t.ins_off.(i) + 1) in
          t.st_v.(i) <- t.v.(en);
          t.st_x.(i) <- t.x.(en)
        | `X -> ()
      end)
    t.opcode;
  propagate_clock_network t ~gated:false t.clock_insts;
  for u = 0 to n_units - 1 do
    if unit_live u then wake t u
  done;
  settle t;
  clear_dirty t;
  flush_wave_sizes t;
  t.waves_skipped <- 0;
  t.cones_skipped <- 0;
  t.evals <- 0;
  Obs.gauge "sim.kernel.lanes" (float_of_int max_lanes);
  Obs.gauge "sim.kernel.instances" (float_of_int n_insts);
  Obs.gauge "sim.kernel.units" (float_of_int n_units);
  Obs.count "sim.kernel.fused_ops" n_fused;
  t
