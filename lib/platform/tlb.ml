type config = {
  name : string;
  l1_entries : int;
  l2_entries : int;
  page_bytes : int;
  l2_latency : int;
  walk_latency : int;
}

let config ?(page_bytes = 4096) ?(l2_latency = 8) ?(walk_latency = 40) ~name ~l1_entries
    ~l2_entries () =
  if l1_entries <= 0 then invalid_arg "Tlb.config: l1_entries";
  if l2_entries < 0 then invalid_arg "Tlb.config: l2_entries";
  if not (Util.Arch.is_pow2 page_bytes) then invalid_arg "Tlb.config: page_bytes";
  if l2_entries > 0 && not (Util.Arch.is_pow2 l2_entries) then invalid_arg "Tlb.config: l2_entries";
  { name; l1_entries; l2_entries; page_bytes; l2_latency; walk_latency }

let firesim_rocket = config ~name:"rocket-tlb" ~l1_entries:32 ~l2_entries:0 ()
let firesim_boom = config ~name:"boom-tlb" ~l1_entries:32 ~l2_entries:1024 ()
let silicon = config ~name:"silicon-tlb" ~l1_entries:64 ~l2_entries:2048 ~walk_latency:32 ()

type stats = {
  accesses : int;
  l1_misses : int;
  walks : int;
}

(* Exact LRU over the fully associative L1 in O(1): the slots form a
   circular doubly linked list in use order ([lru] the least recent,
   [older.(lru)] the most), and a page finds its slot through [buckets]
   (hashed page -> slot, -1 = none; twice as many as slots) and the
   [chain] of slots whose pages share a bucket. *)
type t = {
  cfg : config;
  shift : int;  (* log2 page_bytes, precomputed off the hot path *)
  l1_pages : int array;  (* page held by each slot, -1 invalid *)
  older : int array;
  newer : int array;
  mutable lru : int;
  buckets : int array;
  chain : int array;
  bucket_shift : int;  (* 63 - log2 (Array.length buckets) *)
  l2_pages : int array;  (* direct mapped *)
  mutable s_accesses : int;
  mutable s_l1_misses : int;
  mutable s_walks : int;
}

let reset t =
  let n = t.cfg.l1_entries in
  Array.fill t.l1_pages 0 n (-1);
  for i = 0 to n - 1 do
    t.newer.(i) <- (if i = n - 1 then 0 else i + 1);
    t.older.(i) <- (if i = 0 then n - 1 else i - 1)
  done;
  t.lru <- 0;
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  Array.fill t.l2_pages 0 (Array.length t.l2_pages) (-1);
  t.s_accesses <- 0;
  t.s_l1_misses <- 0;
  t.s_walks <- 0

(* Released TLBs, keyed by config: their arrays reach 2 k words, above
   the minor heap's limit, so a dropped TLB is major-heap garbage. *)
let spare : (config, t) Util.Spare.t = Util.Spare.create ()

let release t = Util.Spare.put spare t.cfg t
let spare_words () = Util.Spare.words spare

let create cfg =
  let n = cfg.l1_entries in
  let bucket_bits = Util.Arch.log2 ((4 * n) - 1) in
  let t =
    match Util.Spare.take spare cfg with
    | Some t -> t
    | None ->
      {
        cfg;
        shift = Util.Arch.log2 cfg.page_bytes;
        l1_pages = Array.make n (-1);
        older = Array.make n 0;
        newer = Array.make n 0;
        lru = 0;
        buckets = Array.make (1 lsl bucket_bits) (-1);
        chain = Array.make n (-1);
        bucket_shift = 63 - bucket_bits;
        l2_pages = Array.make (max 1 cfg.l2_entries) (-1);
        s_accesses = 0;
        s_l1_misses = 0;
        s_walks = 0;
      }
  in
  reset t;
  t

(* Fibonacci hashing: the top bits of the product, so pages that differ
   only in high bits (large strides) still spread. *)
let[@inline] bucket t page = (page * 0x278DDE6E5FD29F05) lsr t.bucket_shift

let find t page =
  let s = ref (Array.unsafe_get t.buckets (bucket t page)) in
  while !s >= 0 && Array.unsafe_get t.l1_pages !s <> page do
    s := Array.unsafe_get t.chain !s
  done;
  !s

(* Take [slot] out of its page's chain. *)
let unchain t slot =
  let b = bucket t t.l1_pages.(slot) in
  if t.buckets.(b) = slot then t.buckets.(b) <- t.chain.(slot)
  else begin
    let s = ref t.buckets.(b) in
    while t.chain.(!s) <> slot do
      s := t.chain.(!s)
    done;
    t.chain.(!s) <- t.chain.(slot)
  end

(* Make [slot] the most recently used: relink it just before [lru], the
   newest position of the circular list, or, if it is [lru], advance. *)
let touch t slot =
  if slot = t.lru then t.lru <- Array.unsafe_get t.newer slot
  else begin
    let o = Array.unsafe_get t.older slot and n = Array.unsafe_get t.newer slot in
    Array.unsafe_set t.newer o n;
    Array.unsafe_set t.older n o;
    let mru = Array.unsafe_get t.older t.lru in
    Array.unsafe_set t.newer mru slot;
    Array.unsafe_set t.older slot mru;
    Array.unsafe_set t.newer slot t.lru;
    Array.unsafe_set t.older t.lru slot
  end

let translate t ~addr =
  t.s_accesses <- t.s_accesses + 1;
  let page = addr lsr t.shift in
  (* MRU shortcut: strided kernels stay on one page for many accesses. *)
  if Array.unsafe_get t.l1_pages (Array.unsafe_get t.older t.lru) = page then 0
  else begin
    let slot = find t page in
    if slot >= 0 then begin
      touch t slot;
      0
    end
    else begin
      t.s_l1_misses <- t.s_l1_misses + 1;
      let victim = t.lru in
      if t.l1_pages.(victim) >= 0 then unchain t victim;
      t.l1_pages.(victim) <- page;
      let b = bucket t page in
      t.chain.(victim) <- t.buckets.(b);
      t.buckets.(b) <- victim;
      t.lru <- t.newer.(victim);
      if t.cfg.l2_entries > 0 then begin
        let idx = page land (t.cfg.l2_entries - 1) in
        if t.l2_pages.(idx) = page then t.cfg.l2_latency
        else begin
          t.s_walks <- t.s_walks + 1;
          t.l2_pages.(idx) <- page;
          t.cfg.walk_latency
        end
      end
      else begin
        t.s_walks <- t.s_walks + 1;
        t.cfg.walk_latency
      end
    end
  end

let stats t = { accesses = t.s_accesses; l1_misses = t.s_l1_misses; walks = t.s_walks }
let reach_bytes cfg = cfg.l1_entries * cfg.page_bytes
