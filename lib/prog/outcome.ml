type fn = int -> bool

let always b = fun _ -> b
let alternating = fun pos -> pos land 1 = 0

let every_nth n =
  if n <= 0 then invalid_arg "Outcome.every_nth: n must be positive";
  fun pos -> pos mod n = 0

let hash01 seed pos =
  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let seed = Util.Rng.salted seed in
  let h = mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (pos + 1)))) in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let biased ~seed ~p_taken = fun pos -> hash01 seed pos < p_taken
let random ~seed = fun pos -> hash01 seed pos < 0.5

let pattern bits =
  let n = Array.length bits in
  if n = 0 then invalid_arg "Outcome.pattern: empty pattern";
  fun pos -> bits.(pos mod n)

let data_dependent (data : int array) ~(threshold : int) =
  let n = Array.length data in
  if n = 0 then invalid_arg "Outcome.data_dependent: empty data";
  fun pos -> data.(pos mod n) > threshold
