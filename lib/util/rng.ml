type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Global seed override: 0 (the default) leaves every baked-in workload
   seed untouched, so historical runs stay bit-identical; any other value
   perturbs every seeded stream in the process deterministically.  Used by
   the CLI's --seed flag for sampling-error experiments across seeds.
   Written only at startup (before any worker domain exists); all
   domains read it unsynchronized thereafter — see rng.mli. *)
let global_seed = ref 0

let set_global_seed s = global_seed := s
let get_global_seed () = !global_seed

let salted seed =
  if !global_seed = 0 then seed
  else
    Int64.to_int
      (Int64.logand
         (mix64 (Int64.add (Int64.of_int seed) (Int64.mul golden_gamma (Int64.of_int !global_seed))))
         0x3FFF_FFFF_FFFF_FFFFL)

let create seed = { state = mix64 (Int64.of_int (salted seed)) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let derive t label =
  (* Key the child stream on a hash of [label] mixed with the parent state,
     leaving the parent stream untouched. *)
  let h = Hashtbl.hash label in
  { state = mix64 (Int64.add t.state (Int64.of_int ((h * 2) + 1))) }

let for_cell index =
  if index < 0 then invalid_arg "Rng.for_cell: negative cell index";
  (* A pure function of (global_seed, index): the base state folds in the
     global seed via [salted]; the odd per-index offset then keys the
     cell stream the same way [derive] keys label streams. *)
  let base = mix64 (Int64.of_int (salted 0x9E3779B9)) in
  { state = mix64 (Int64.add base (Int64.of_int ((index * 2) + 1))) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

(* Workload address patterns rebuild the same multi-million-entry
   permutations once per platform per run (the 128 MiB pointer-chase ring
   is ~2M nodes, ~80 ms of random-access shuffling).  The result is a pure
   function of (state, n), so memoize it.  The generator state is advanced
   exactly as [permutation] would have (shuffle draws n-1 times, and each
   draw adds the golden gamma to the state), keeping downstream draws
   bit-identical whether the entry was cached or not.

   Entries are int32s in a [Bytes] buffer: half the size of an [int
   array], and never scanned by the GC.  The shuffle is [shuffle]'s, draw
   for draw, on that buffer.

   The memo table is domain-local (Domain.DLS), not mutex-guarded: worker
   domains in the experiment pool hit this path concurrently, and a
   per-domain table needs no locking, never shares buffers across domains
   (so even a caller that ignores the read-only contract cannot corrupt a
   sibling's stream), and still amortizes the shuffle because each domain
   runs many cells.  The only cost is one rebuild per domain per
   distinct (state, n) — noise next to the simulations themselves. *)
let perm_memo_key : (int64 * int, Bytes.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let perm_memo_capacity = 32

let permutation32 t n =
  if n < 0 || n > Int32.to_int Int32.max_int then invalid_arg "Rng.shared_permutation: bad size";
  let b = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int i)
  done;
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = Bytes.get_int32_le b (4 * i) in
    Bytes.set_int32_le b (4 * i) (Bytes.get_int32_le b (4 * j));
    Bytes.set_int32_le b (4 * j) tmp
  done;
  b

let shared_permutation t n =
  let perm_memo = Domain.DLS.get perm_memo_key in
  let key = (t.state, n) in
  match Hashtbl.find_opt perm_memo key with
  | Some b ->
    t.state <- Int64.add t.state (Int64.mul (Int64.of_int (max 0 (n - 1))) golden_gamma);
    b
  | None ->
    let b = permutation32 t n in
    if Hashtbl.length perm_memo >= perm_memo_capacity then Hashtbl.reset perm_memo;
    Hashtbl.add perm_memo key b;
    b

let shared_permutation_bytes () =
  Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) (Domain.DLS.get perm_memo_key) 0
