type t = (string * Logic.t) list list

type shape =
  | Uniform of float
  | Profiled of (string -> float)
  | Bursty of { burst_len : int; idle_len : int; toggle_probability : float }

type packed = {
  inputs : string array;
  lanes : int;
  cycles : int;
  words : int array;
}

let max_lanes = Sys.int_size

(* A small splitmix-style deterministic PRNG so streams do not depend on
   the global Random state.  A generator is one 64-bit state at byte
   offset [8 * g] of a buffer, so one buffer holds a generator per lane
   unboxed and a draw allocates nothing. *)
module Prng = struct
  external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  (* one generator per seed, generator [g] seeded by [seeds.(g)] *)
  let create seeds =
    let s = Bytes.create (8 * Array.length seeds) in
    Array.iteri
      (fun g seed -> set64 s (8 * g) (Int64.of_int ((seed * 2654435769) + 1)))
      seeds;
    s

  let[@inline] next s g =
    let z = Int64.add (get64 s (8 * g)) 0x9E3779B97F4A7C15L in
    set64 s (8 * g) z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* A draw is uniform in [0, 1) as [u /. 2^53], [u] the top 53 bits of
     [next]; it falls below [p] exactly when [u < threshold p]: [u] is an
     integer, and scaling by 2^53 is exact in both directions.  A NaN or
     non-positive [p] never hits, as with a float comparison. *)
  let threshold p =
    if not (p > 0.0) then 0
    else if p >= 1.0 then 1 lsl 53
    else int_of_float (Float.ceil (p *. 9007199254740992.0))

  (* 1 when generator [g]'s next draw falls below [threshold], else 0:
     [u - threshold] is negative exactly then, and [lsr 62] keeps an
     int's sign bit *)
  let[@inline] below s g threshold =
    (Int64.to_int (Int64.shift_right_logical (next s g) 11) - threshold) lsr 62
end

(* Each lane draws from its own generator: every input's start value in
   input order, then for every later cycle one toggle draw per input in
   input order.  This is the only place a stream's values come from.
   The array fills cycle by cycle and input by input, each word built
   from one draw of every lane, so each word is written once; a lane's
   own draws keep their order, so its bits do not depend on how many
   lanes are drawn beside it. *)
let draw ~seeds ~cycles shape inputs =
  let lanes = Array.length seeds in
  if lanes > max_lanes then
    invalid_arg (Printf.sprintf "Stimulus.draw: %d seeds, at most %d" lanes max_lanes);
  if cycles < 0 then
    invalid_arg (Printf.sprintf "Stimulus.draw: %d cycles, at least 0" cycles);
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  (* toggle thresholds of a burst cycle and of an idle one *)
  let burst, idle, in_burst =
    match shape with
    | Uniform p ->
      let a = Array.make n (Prng.threshold p) in
      (a, a, fun _ -> true)
    | Profiled profile ->
      let a = Array.map (fun name -> Prng.threshold (profile name)) inputs in
      (a, a, fun _ -> true)
    | Bursty { burst_len; idle_len; toggle_probability } ->
      let span = burst_len + idle_len in
      ( Array.make n (Prng.threshold toggle_probability),
        Array.make n (Prng.threshold 0.01),
        fun cycle -> span = 0 || cycle mod span < burst_len )
  in
  let half = Prng.threshold 0.5 in
  let words = Array.make (cycles * n) 0 in
  Obs.span "sim.stimulus.build" (fun () ->
      let rng = Prng.create seeds in
      (* bit [l] of the word: lane [l]'s next draw below [th] *)
      let[@inline] hits th =
        let w = ref 0 in
        for l = 0 to lanes - 1 do
          w := !w lor (Prng.below rng l th lsl l)
        done;
        !w
      in
      for cycle = 0 to cycles - 1 do
        let base = cycle * n in
        if cycle = 0 then
          for k = 0 to n - 1 do
            words.(k) <- hits half
          done
        else begin
          let th = if in_burst cycle then burst else idle in
          for k = 0 to n - 1 do
            words.(base + k) <- words.(base - n + k) lxor hits th.(k)
          done
        end
      done);
  Obs.count "sim.stimulus.words" (cycles * n);
  { inputs; lanes; cycles; words }

let lane p l =
  if l < 0 || l >= p.lanes then invalid_arg "Stimulus.lane: bad lane";
  let bit = 1 lsl l and n = Array.length p.inputs in
  List.init p.cycles (fun cycle ->
      List.init n (fun k ->
          (p.inputs.(k), Logic.of_bool (p.words.((cycle * n) + k) land bit <> 0))))

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
  let words = Array.make (cycles * n) 0 in
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
                 | Logic.L1 ->
                   let i = (cycle * n) + k in
                   words.(i) <- words.(i) lor (1 lsl l)
                 | Logic.LX -> misfit l cycle);
                k + 1)
              0 ports
          in
          if listed <> n then misfit l cycle)
        stream)
    streams;
  { inputs; lanes; cycles; words }

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
