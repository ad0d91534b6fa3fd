type fn = int -> int

let strided ~base ~elem ~stride_elems ~wrap_elems =
  if wrap_elems <= 0 then invalid_arg "Mem.strided: wrap_elems must be positive";
  fun pos -> base + (pos * stride_elems mod wrap_elems * elem)

let linear ~base ~elem = fun pos -> base + (pos * elem)

let chase rng ~base ~bytes ~stride =
  let nodes = max 2 (bytes / stride) in
  (* Random Hamiltonian cycle: visit nodes in a random permutation; the
     emission just replays the permutation cyclically.  The dependence
     chain (each address loaded from the previous node) is expressed by the
     kernel through registers.  The permutation is memoized on the
     generator state, so replaying the same seeded chase on another
     platform reuses the buffer instead of re-shuffling. *)
  let order = Util.Rng.shared_permutation rng nodes in
  fun pos -> base + (Int32.to_int (Bytes.get_int32_le order (4 * (pos mod nodes))) * stride)

let random_in ~seed ~base ~bytes ~align =
  if align <= 0 then invalid_arg "Mem.random_in: align must be positive";
  let slots = max 1 (bytes / align) in
  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  fun pos ->
    let seed = Util.Rng.salted seed in
    let h = mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (pos + 1)))) in
    let slot = Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int slots)) in
    base + (slot * align)

let conflict ~base ~line ~sets ~distinct =
  if distinct <= 0 then invalid_arg "Mem.conflict: distinct must be positive";
  fun pos -> base + (pos mod distinct * sets * line)

let gather index ~elem ~base =
  let n = Array.length index in
  if n = 0 then invalid_arg "Mem.gather: empty index";
  fun pos -> base + (index.(pos mod n) * elem)
