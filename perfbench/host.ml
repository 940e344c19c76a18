(* The host's speed at the moment, from a fixed amount of work that calls
   none of the program's code.  On a shared host the same pass runs up to
   ~50% slower for tens of seconds at a time, in step with everything else
   on the core; a probe run next to a timing sees the same slowdown, so
   timings scaled by [reference_s / probe time] read what they would on the
   host in its fast spells.  README.md has the measurements. *)

(* Chains that a full-period linear congruential step walks in an order
   no prefetcher follows: 2^21 ints (16 MB, past the caches) and 2^15
   (256 KB, within them). *)
let chain bits =
  let size = 1 lsl bits in
  Array.init size (fun x -> (x * 1_664_525 + 1_013_904_223) land (size - 1))

let far = chain 21
let near = chain 15

(* text to scan, as a parser does *)
let text = String.init (1 lsl 18) (fun i -> Char.chr (32 + (i * 7919 mod 95)))

let walk chain steps =
  let j = ref 0 in
  for _ = 1 to steps do
    j := Array.unsafe_get chain !j
  done;
  !j

let scan () =
  let h = ref 0 in
  for _ = 1 to 8 do
    String.iter (fun c -> h := (!h * 31) + Char.code c) text
  done;
  !h

(* Allocation that lives long enough to be promoted, as in the flow's
   stimulus, simulation and lint stages: a table of boxed floats and a
   sorted list. *)
let churn n =
  let t = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace t ((i * 7919) land 0xfffff) (float_of_int i)
  done;
  let l = List.sort compare (List.init n (fun i -> (i * 104_729) land 0xffff)) in
  Hashtbl.length t + List.length l

(* Dependent loads through memory and through the caches, byte scanning
   with hashing, and allocation with its collection.  The caller runs it
   on a freshly compacted heap, so the heap's state does not move its
   time. *)
let work () = walk far 60_000 + walk near 500_000 + scan () + churn 30_000

(* Seconds one probe takes on a 2-vCPU Xeon (Sapphire Rapids, KVM) in its
   fast spells.  Only the scale of the scaled timings depends on it. *)
let reference_s = 0.024

let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

(* Probes taken across one stretch of a run. *)
type meter = { mutable probes : int; mutable probe_s : float }

let meter () = { probes = 0; probe_s = 0.0 }

let tick m =
  m.probes <- m.probes + 1;
  m.probe_s <- m.probe_s +. probe ()

(* What a time measured during the stretch is multiplied by. *)
let scale m = reference_s *. float_of_int m.probes /. m.probe_s
