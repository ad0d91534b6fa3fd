(* Architectural constants shared across layers.  The cache line size is
   referenced from several places that must agree — the cache model's
   default geometry, the code allocator's region alignment, and the core
   models' fetch-line tracking — so it lives here once. *)

let cache_line_bytes = 64
let cache_line_shift = 6
let () = assert (1 lsl cache_line_shift = cache_line_bytes)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n
