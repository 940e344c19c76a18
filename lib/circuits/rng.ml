type t = { mutable x : int64 }

let create seed = { x = Int64.of_int ((seed * 2654435769) + 12345) }

let next s =
  s.x <- Int64.add s.x 0x9E3779B97F4A7C15L;
  let z = s.x in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int s bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next s) 1) (Int64.of_int bound))

let float s =
  Int64.to_float (Int64.shift_right_logical (next s) 11) /. 9007199254740992.0

let bool s = float s < 0.5

let chance s p = float s < p

let pick s l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ :: _ -> List.nth l (int s (List.length l))
