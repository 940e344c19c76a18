type t = (string * Logic.t) list list

type shape =
  | Uniform of float
  | Profiled of (string -> float)
  | Bursty of { burst_len : int; idle_len : int; toggle_probability : float }

(* A draw's words, column by column: column [k] holds input [k]'s word
   in each of the draw's [length] cycles.  [cols.(k)] is [[||]] until
   [fill] wrote it; [lock] makes each column's fill happen once,
   whichever domain asks first.  A prefix view shares the record, so
   its columns can be longer than its cycles. *)
type columns = {
  cols : int array array;
  length : int;
  fill : int -> int array;
  lock : Mutex.t;
}

type packed = {
  inputs : string array;
  lanes : int;
  cycles : int;
  columns : columns;
}

let max_lanes = Sys.int_size

(* A small splitmix64 generator, so streams do not depend on the global
   Random state.  It is counter-based: a lane's [j]-th draw (from 0) is
   [mix (s0 + (j + 1) * gamma)], [s0] the lane's seed state, so any draw
   can be computed without the ones before it.  A lane's state lives at
   byte offset [8 * l] of a buffer, so one buffer holds every lane's
   unboxed and a fill allocates only its column. *)
module Prng = struct
  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let gamma = 0x9E3779B97F4A7C15L

  let seed_state seed = Int64.of_int ((seed * 2654435769) + 1)

  (* the states of [seeds]' [j]-th draws, lane [l] at offset [8 * l] *)
  let states seeds j =
    let s = Bytes.create (8 * Array.length seeds) in
    let step = Int64.mul (Int64.of_int (j + 1)) gamma in
    Array.iteri (fun l seed -> set64 s (8 * l) (Int64.add (seed_state seed) step)) seeds;
    s

  let[@inline] mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* A draw is uniform in [0, 1) as [u /. 2^53], [u] the top 53 bits of
     a mixed state; it falls below [p] exactly when [u < threshold p]:
     [u] is an integer, and scaling by 2^53 is exact in both directions.
     A NaN or non-positive [p] never hits, as with a float comparison. *)
  let threshold p =
    if not (p > 0.0) then 0
    else if p >= 1.0 then 1 lsl 53
    else int_of_float (Float.ceil (p *. 9007199254740992.0))

  (* 1 when the draw of state [z] falls below [threshold], else 0:
     [u - threshold] is negative exactly then, and [lsr 62] keeps an
     int's sign bit *)
  let[@inline] below z threshold =
    (Int64.to_int (Int64.shift_right_logical (mix z) 11) - threshold) lsr 62
end

(* Each lane draws from its own generator: every input's start value in
   input order, then for every later cycle one toggle draw per input in
   input order.  This is the only place a stream's values come from.
   So input [k]'s word in cycle [c] is made of each lane's draw
   [c * n + k] ([n] inputs): a column fills on its own, one word per
   cycle, each word from one draw of every lane, and a lane's bits do
   not depend on how many lanes are drawn beside it or on which other
   columns are filled. *)
let draw ~seeds ~cycles shape inputs =
  let lanes = Array.length seeds in
  if lanes > max_lanes then
    invalid_arg (Printf.sprintf "Stimulus.draw: %d seeds, at most %d" lanes max_lanes);
  if cycles < 0 then
    invalid_arg (Printf.sprintf "Stimulus.draw: %d cycles, at least 0" cycles);
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let seeds = Array.copy seeds in
  (* input [k]'s toggle threshold in a cycle of a burst and of an idle
     stretch *)
  let burst, idle, in_burst =
    match shape with
    | Uniform p ->
      let th = Prng.threshold p in
      ((fun _ -> th), (fun _ -> th), fun _ -> true)
    | Profiled profile ->
      let a = Array.map (fun name -> Prng.threshold (profile name)) inputs in
      ((fun k -> a.(k)), (fun k -> a.(k)), fun _ -> true)
    | Bursty { burst_len; idle_len; toggle_probability } ->
      let span = burst_len + idle_len in
      let on = Prng.threshold toggle_probability and off = Prng.threshold 0.01 in
      ((fun _ -> on), (fun _ -> off), fun cycle -> span = 0 || cycle mod span < burst_len)
  in
  let half = Prng.threshold 0.5 in
  let fill k =
    let col = Array.make cycles 0 in
    if cycles > 0 then begin
      let s = Prng.states seeds k in
      let step = Int64.mul (Int64.of_int n) Prng.gamma in
      (* bit [l] of the word: lane [l]'s draw below [th]; each lane then
         moves on to its draw one cycle later *)
      let[@inline] hits th =
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          let z = Prng.get64 s (8 * l) in
          w := !w lor (Prng.below z th lsl l);
          Prng.set64 s (8 * l) (Int64.add z step)
        done;
        !w
      in
      col.(0) <- hits half;
      let on = burst k and off = idle k in
      for cycle = 1 to cycles - 1 do
        col.(cycle) <- col.(cycle - 1) lxor hits (if in_burst cycle then on else off)
      done
    end;
    col
  in
  { inputs; lanes; cycles;
    columns =
      { cols = Array.make n [||]; length = cycles; fill; lock = Mutex.create () } }

let prefix p ~cycles =
  if cycles < 0 || cycles > p.cycles then
    invalid_arg
      (Printf.sprintf "Stimulus.prefix: %d cycles of a draw of %d" cycles p.cycles);
  { p with cycles }

(* Fill the columns [ks] that are not yet filled, whole, under one
   [sim.stimulus.build] span and adding their words to
   [sim.stimulus.words]; return them, in [ks] order. *)
let columns p ks =
  let c = p.columns in
  let missing k = c.cols.(k) == [||] in
  Mutex.protect c.lock (fun () ->
      if p.cycles > 0 && Array.exists missing ks then begin
        let drawn = ref 0 in
        Obs.span "sim.stimulus.build" (fun () ->
            Array.iter
              (fun k ->
                if missing k then begin
                  c.cols.(k) <- c.fill k;
                  drawn := !drawn + c.length
                end)
              ks);
        Obs.count "sim.stimulus.words" !drawn
      end;
      Array.map (fun k -> c.cols.(k)) ks)

let words p =
  let n = Array.length p.inputs in
  let cols = columns p (Array.init n Fun.id) in
  Array.init (p.cycles * n) (fun i -> cols.(i mod n).(i / n))

let lane p l =
  if l < 0 || l >= p.lanes then invalid_arg "Stimulus.lane: bad lane";
  let bit = 1 lsl l and n = Array.length p.inputs in
  let cols = columns p (Array.init n Fun.id) in
  List.init p.cycles (fun cycle ->
      List.init n (fun k ->
          (p.inputs.(k), Logic.of_bool (cols.(k).(cycle) land bit <> 0))))

let misfit lane cycle =
  invalid_arg
    (Printf.sprintf
       "Stimulus.pack: lane %d cycle %d does not list lane 0's ports in \
        order with values 0 or 1" lane cycle)

let pack streams =
  let lanes = Array.length streams in
  if lanes > max_lanes then
    invalid_arg (Printf.sprintf "Stimulus.pack: %d lanes, at most %d" lanes max_lanes);
  let cycles = if lanes = 0 then 0 else List.length streams.(0) in
  let inputs =
    match Array.to_list streams with
    | (first :: _) :: _ -> Array.of_list (List.map fst first)
    | [] :: _ | [] -> [||]
  in
  let n = Array.length inputs in
  let cols = Array.init n (fun _ -> Array.make cycles 0) in
  Array.iteri
    (fun l stream ->
      if List.length stream <> cycles then
        invalid_arg "Stimulus.pack: lane streams of different lengths";
      List.iteri
        (fun cycle ports ->
          let listed =
            List.fold_left
              (fun k (port, value) ->
                if k >= n || not (String.equal port inputs.(k)) then misfit l cycle;
                (match value with
                 | Logic.L0 -> ()
                 | Logic.L1 -> cols.(k).(cycle) <- cols.(k).(cycle) lor (1 lsl l)
                 | Logic.LX -> misfit l cycle);
                k + 1)
              0 ports
          in
          if listed <> n then misfit l cycle)
        stream)
    streams;
  { inputs; lanes; cycles;
    columns =
      { cols; length = cycles; fill = (fun _ -> assert false);
        lock = Mutex.create () } }

let single_lane seed ~cycles shape inputs =
  lane (draw ~seeds:[| seed |] ~cycles shape inputs) 0

let random ~seed ~cycles ~toggle_probability inputs =
  single_lane seed ~cycles (Uniform toggle_probability) inputs

let profiled ~seed ~cycles profile inputs =
  single_lane seed ~cycles (Profiled profile) inputs

let bursty ~seed ~cycles ~burst_len ~idle_len ~toggle_probability inputs =
  single_lane seed ~cycles (Bursty { burst_len; idle_len; toggle_probability }) inputs

let constant ~cycles v inputs =
  List.init cycles (fun _ -> List.map (fun name -> (name, v)) inputs)

let inputs_of d =
  List.filter_map
    (fun (p, _) ->
      if Netlist.Design.is_clock_port d p then None else Some p)
    d.Netlist.Design.primary_inputs
