(* The contract every Jobs caller relies on: results in input order,
   the first failure by input index re-raised, correct results from
   nested maps once the domain budget is spent, and the trivial
   inputs.  The suite runs under whatever THREEPHASE_JOBS it was
   started with; run it at 1, 2 and 4 to cover both the serial fallback
   and real worker domains. *)

let check = Alcotest.check

exception Item of int

let test_input_order () =
  let got = Jobs.parallel_mapi_array (fun i x -> (i, x * x)) (Array.init 100 Fun.id) in
  check Alcotest.(array (pair int int)) "mapi keeps input order"
    (Array.init 100 (fun i -> (i, i * i)))
    got

(* Items 3 and 7 both raise.  Where a second domain is available, item
   3 holds back (at most 50 ms) until item 7 has raised, so a map that
   surfaced failures in completion order would report item 7. *)
let test_first_failure_by_index () =
  let seven_raised = Atomic.make false in
  let f i () =
    if i = 3 then begin
      let deadline = Unix.gettimeofday () +. 0.05 in
      while (not (Atomic.get seven_raised)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 1e-4
      done;
      raise (Item 3)
    end
    else if i = 7 then begin
      Atomic.set seven_raised true;
      raise (Item 7)
    end
    else i
  in
  match Jobs.parallel_mapi_array f (Array.make 10 ()) with
  | _ -> Alcotest.fail "expected item 3's exception"
  | exception Item k -> check Alcotest.int "lowest failing index wins" 3 k

(* Three levels of nesting ask for far more domains than any budget
   holds: the outer map takes the tokens, and the inner maps must
   still return every result, in order, on whatever domain runs them. *)
let test_nested_past_budget () =
  let n = 6 in
  let got =
    Jobs.parallel_mapi_array
      (fun a () ->
        Jobs.parallel_mapi_array
          (fun b () ->
            Array.fold_left ( + ) 0
              (Jobs.parallel_mapi_array
                 (fun c () -> (100 * a) + (10 * b) + c)
                 (Array.make n ())))
          (Array.make n ()))
      (Array.make n ())
  in
  let expected =
    Array.init n (fun a ->
        Array.init n (fun b -> (n * ((100 * a) + (10 * b))) + (n * (n - 1) / 2)))
  in
  check Alcotest.(array (array int)) "nested results" expected got

let test_trivial_inputs () =
  check Alcotest.(array int) "empty array" [||]
    (Jobs.parallel_mapi_array (fun _ x -> x) [||]);
  check Alcotest.(array int) "one item" [| 42 |]
    (Jobs.parallel_mapi_array (fun i x -> x + i + 1) [| 41 |]);
  match Jobs.parallel_mapi_array (fun _ () -> raise (Item 0)) [| () |] with
  | _ -> Alcotest.fail "expected the lone item's exception"
  | exception Item k -> check Alcotest.int "lone item raises" 0 k

let suite =
  [ Alcotest.test_case "results keep input order" `Quick test_input_order;
    Alcotest.test_case "first exception by index wins" `Quick
      test_first_failure_by_index;
    Alcotest.test_case "nested maps past the budget" `Quick
      test_nested_past_budget;
    Alcotest.test_case "empty and one-item inputs" `Quick test_trivial_inputs ]
