(* Bounded domain-level parallelism: order-preserving maps that spawn
   worker domains for the duration of one call and join them before
   returning.  Workers claim items by index from a shared counter;
   results come back in input order and the first exception (by input
   index) is re-raised with its backtrace, so a parallel run is
   observationally identical to the serial one.

   A global token budget bounds the number of live worker domains even
   when parallel sections nest (the suite loop in bench/ maps over
   benchmarks whose runners themselves map over variants): a map that
   finds no tokens left runs serially on the calling domain. *)

let default_jobs () =
  match Sys.getenv_opt "THREEPHASE_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | Some _ | None -> 1)
  | None -> Domain.recommended_domain_count ()

(* tokens for *extra* domains beyond the calling one *)
let budget = Atomic.make (-1)

let init_budget () =
  (* first caller fixes the budget; races both write the same value *)
  if Atomic.get budget < 0 then
    Atomic.set budget (max 0 (default_jobs () - 1))

(* take up to [want] tokens, returning how many were granted *)
let rec reserve want =
  if want <= 0 then 0
  else
    let n = Atomic.get budget in
    if n <= 0 then 0
    else
      let take = min n want in
      if Atomic.compare_and_set budget n (n - take) then take
      else reserve want

let release n = if n > 0 then ignore (Atomic.fetch_and_add budget n)

let parallel_mapi_array f items =
  let n = Array.length items in
  init_budget ();
  let workers = if n <= 1 then 0 else reserve (min (default_jobs ()) n - 1) in
  if workers = 0 then Array.mapi f items
  else
    Fun.protect ~finally:(fun () -> release workers) (fun () ->
        let results = Array.make n None in
        let next = Atomic.make 0 in
        let rec claim () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <-
              Some
                (match f i items.(i) with
                 | r -> Ok r
                 | exception e -> Error (e, Printexc.get_raw_backtrace ()));
            claim ()
          end
        in
        let domains = Array.init workers (fun _ -> Domain.spawn claim) in
        claim ();
        Array.iter Domain.join domains;
        (* surface the first failure in input order, like a serial run *)
        Array.map
          (function
            | Some (Ok r) -> r
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | None -> assert false)
          results)
