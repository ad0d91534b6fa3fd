type config = {
  name : string;
  sets : int;
  ways : int;
  line : int;
  hit_latency : int;
  mshrs : int;
  banks : int;
  write_back : bool;
  prefetch_next : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(hit_latency = 2) ?(mshrs = 4) ?(banks = 1) ?(write_back = true) ?(line = Util.Arch.cache_line_bytes)
    ?(prefetch_next = 0) ~name ~sets ~ways () =
  if not (is_pow2 sets) then invalid_arg "Cache.config: sets must be a power of two";
  if not (is_pow2 line) then invalid_arg "Cache.config: line must be a power of two";
  if not (is_pow2 banks) then invalid_arg "Cache.config: banks must be a power of two";
  if ways <= 0 then invalid_arg "Cache.config: ways";
  if mshrs <= 0 then invalid_arg "Cache.config: mshrs";
  if hit_latency <= 0 then invalid_arg "Cache.config: hit_latency";
  if prefetch_next < 0 then invalid_arg "Cache.config: prefetch_next";
  { name; sets; ways; line; hit_latency; mshrs; banks; write_back; prefetch_next }

let size_bytes c = c.sets * c.ways * c.line

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  bank_conflicts : int;
  mshr_stalls : int;
  prefetches : int;
}

type next_level = cycle:int -> addr:int -> write:bool -> int

type t = {
  cfg : config;
  line_shift : int;  (* log2 line, precomputed off the hot path *)
  (* Per-way state, sets*ways.  A way is valid iff its [last_use] stamp
     is above [cold_clock]; the other four arrays mean something only
     for valid ways. *)
  tags : int array;  (* line address *)
  last_use : int array;  (* [use_clock] at the way's last touch *)
  dirty : bool array;
  fill_done : int array;  (* cycle the line's refill completes *)
  pref_tag : bool array;  (* line was prefetched and not yet demanded *)
  bank_free : int array;  (* cycle at which each bank accepts a new access *)
  mshr_done : int array;  (* completion cycles of outstanding misses *)
  mutable use_clock : int;
  mutable cold_clock : int;  (* [use_clock] when the cache was last made cold *)
  streams : int array;  (* stream table: expected next miss line per stream *)
  mutable stream_rr : int;
  mutable s_accesses : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_writebacks : int;
  mutable s_bank_conflicts : int;
  mutable s_mshr_stalls : int;
  mutable s_prefetches : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Released caches whose line arrays the next [create] of the same size
   takes over.  A grid run creates and drops one SoC per cell; without
   reuse each dropped 64 MiB LLC leaves 40 MiB of arrays for the GC, and
   how many of those are still unswept when the next is allocated, so
   the peak heap, depends on where the major cycle stands.  A size is
   held at most as many times as caches of it were ever live at once.

   Taking a spare over costs O(1), not a clear of every line: the new
   cache's use clock starts where the old one stopped, so every way the
   old cache touched reads as invalid.  Sizes, not geometries, match: a
   16384x64 LLC takes over a 65536x16 one's arrays. *)
let spare : t list ref = ref []
let spare_lock = Mutex.create ()

let release t = Mutex.protect spare_lock (fun () -> spare := t :: !spare)

let take_spare n =
  Mutex.protect spare_lock (fun () ->
      match List.find_opt (fun c -> Array.length c.tags = n) !spare with
      | Some c ->
        spare := List.filter (fun c' -> c' != c) !spare;
        Some c
      | None -> None)

let create cfg =
  let n = cfg.sets * cfg.ways in
  let tags, last_use, dirty, fill_done, pref_tag, clock =
    match take_spare n with
    | Some c -> (c.tags, c.last_use, c.dirty, c.fill_done, c.pref_tag, c.use_clock)
    | None ->
      (Array.make n (-1), Array.make n 0, Array.make n false, Array.make n 0, Array.make n false, 0)
  in
  {
    cfg;
    line_shift = log2 cfg.line;
    tags;
    last_use;
    dirty;
    fill_done;
    pref_tag;
    bank_free = Array.make cfg.banks 0;
    mshr_done = Array.make cfg.mshrs 0;
    use_clock = clock;
    cold_clock = clock;
    streams = Array.make 8 min_int;
    stream_rr = 0;
    s_accesses = 0;
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_writebacks = 0;
    s_bank_conflicts = 0;
    s_mshr_stalls = 0;
    s_prefetches = 0;
  }

let line_addr t addr = addr land lnot (t.cfg.line - 1)

let set_of t addr =
  let line = addr lsr t.line_shift in
  line land (t.cfg.sets - 1)

let bank_of t addr =
  let line = addr lsr t.line_shift in
  line land (t.cfg.banks - 1)

let[@inline] valid t slot = Array.unsafe_get t.last_use slot > t.cold_clock

(* Loops below use local refs and unsafe array accesses rather than inner
   recursive functions — without flambda the latter allocate a closure per
   call, and these run once per memory access in the replay hot loop.
   Indices are in range by construction ([set] < sets, [w] < ways).
   A way left over from before the cache was last made cold may still
   hold [line]; [find_way] skips it and scans on. *)
let find_way t set line =
  let base = set * t.cfg.ways in
  let found = ref (-1) in
  let w = ref 0 in
  let ways = t.cfg.ways in
  while !w < ways do
    if Array.unsafe_get t.tags (base + !w) = line && valid t (base + !w) then begin
      found := base + !w;
      w := ways
    end
    else incr w
  done;
  !found

(* The first invalid way, else the least recently used one.  An invalid
   way's stamp is below every valid way's, so once [best] is invalid no
   later way replaces it. *)
let victim_way t set =
  let base = set * t.cfg.ways in
  let best = ref base in
  for w = 1 to t.cfg.ways - 1 do
    let i = base + w in
    let use_b = Array.unsafe_get t.last_use !best in
    if use_b > t.cold_clock && Array.unsafe_get t.last_use i < use_b then best := i
  done;
  !best

let touch t slot =
  t.use_clock <- t.use_clock + 1;
  Array.unsafe_set t.last_use slot t.use_clock

(* Stream table scan / advance. *)
let stream_hit t line =
  let n = Array.length t.streams in
  let hit = ref false in
  let i = ref 0 in
  while !i < n do
    if Array.unsafe_get t.streams !i = line then begin
      hit := true;
      i := n
    end
    else incr i
  done;
  !hit

let stream_advance t line =
  for i = 0 to Array.length t.streams - 1 do
    if Array.unsafe_get t.streams i = line then Array.unsafe_set t.streams i (line + t.cfg.line)
  done

(* The MSHR a miss takes: the one that frees earliest.  An index, not a
   (slot, issue cycle) pair, which would be allocated on every miss. *)
let grab_mshr t =
  let best = ref 0 in
  for i = 1 to t.cfg.mshrs - 1 do
    if Array.unsafe_get t.mshr_done i < Array.unsafe_get t.mshr_done !best then best := i
  done;
  !best

(* Install [line] (absent) by evicting a victim; returns the slot. *)
let install t set line ~fill ~dirty ~prefetched ~next =
  let victim = victim_way t set in
  let evicting = valid t victim in
  if evicting then t.s_evictions <- t.s_evictions + 1;
  if evicting && t.dirty.(victim) && t.cfg.write_back then begin
    t.s_writebacks <- t.s_writebacks + 1;
    (* The write-back consumes downstream bandwidth but is off the demand
       access's critical path. *)
    ignore (next ~cycle:fill ~addr:(t.tags.(victim)) ~write:true)
  end;
  t.tags.(victim) <- line;
  t.dirty.(victim) <- dirty;
  t.fill_done.(victim) <- fill;
  t.pref_tag.(victim) <- prefetched;
  touch t victim;
  victim

(* Bring one line in as a prefetch (no-op if present). *)
let prefetch_line t line ~cycle ~next =
  let set = set_of t line in
  if find_way t set line < 0 then begin
    t.s_prefetches <- t.s_prefetches + 1;
    let fill = next ~cycle ~addr:line ~write:false in
    ignore (install t set line ~fill ~dirty:false ~prefetched:true ~next)
  end

let access ?(prefetchable = true) t ~next ~cycle ~addr ~write =
  t.s_accesses <- t.s_accesses + 1;
  let bank = bank_of t addr in
  let start =
    if t.bank_free.(bank) <= cycle then cycle
    else begin
      t.s_bank_conflicts <- t.s_bank_conflicts + 1;
      t.bank_free.(bank)
    end
  in
  (* Pipelined bank: occupied for one cycle per access. *)
  t.bank_free.(bank) <- start + 1;
  let line = line_addr t addr in
  let set = set_of t addr in
  let slot = find_way t set line in
  if slot >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    touch t slot;
    if write then t.dirty.(slot) <- true;
    (* Tagged stream prefetch: consuming a prefetched line keeps the
       stream running [prefetch_next] lines ahead. *)
    if t.pref_tag.(slot) then begin
      t.pref_tag.(slot) <- false;
      if t.cfg.prefetch_next > 0 then
        prefetch_line t
          (line + (t.cfg.prefetch_next * t.cfg.line))
          ~cycle:(start + t.cfg.hit_latency) ~next
    end;
    (* A hit on a line whose refill (e.g. a prefetch) is still in flight
       waits for the fill.  Int-annotated compare: [Stdlib.max] is
       polymorphic and costs a call on the per-access fast path. *)
    let hit_done = start + t.cfg.hit_latency in
    let fill = Array.unsafe_get t.fill_done slot in
    if hit_done >= fill then hit_done else fill
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    (* Stream table: a miss matching some stream's expected next line
       confirms that stream; otherwise it allocates a fresh entry.  This
       tracks several interleaved streams (stencil codes touch many). *)
    let sequential = prefetchable && stream_hit t line in
    (if sequential then stream_advance t line
     else if prefetchable then begin
       t.streams.(t.stream_rr) <- line + t.cfg.line;
       t.stream_rr <- (t.stream_rr + 1) mod Array.length t.streams
     end);
    let mshr = grab_mshr t in
    let issue =
      let free = Array.unsafe_get t.mshr_done mshr in
      if free <= start then start
      else begin
        t.s_mshr_stalls <- t.s_mshr_stalls + 1;
        free
      end
    in
    (* Refill from downstream; the tag lookup has already cost hit_latency. *)
    let fill_done = next ~cycle:(issue + t.cfg.hit_latency) ~addr:line ~write:false in
    t.mshr_done.(mshr) <- fill_done;
    ignore (install t set line ~fill:fill_done ~dirty:(write && t.cfg.write_back) ~prefetched:false ~next);
    (* Stride-detected stream prefetch: a second consecutive miss launches
       a burst covering the next [prefetch_next] lines; tagged hits keep
       the stream ahead.  Random misses never trigger it. *)
    if t.cfg.prefetch_next > 0 && sequential then
      for k = 1 to t.cfg.prefetch_next do
        prefetch_line t (line + (k * t.cfg.line)) ~cycle:(issue + t.cfg.hit_latency) ~next
      done;
    fill_done
  end

let probe t ~addr =
  let line = line_addr t addr in
  find_way t (set_of t addr) line >= 0

let flush t =
  t.cold_clock <- t.use_clock;
  Array.fill t.streams 0 (Array.length t.streams) min_int;
  Array.fill t.bank_free 0 (Array.length t.bank_free) 0;
  Array.fill t.mshr_done 0 (Array.length t.mshr_done) 0

let stats t =
  {
    accesses = t.s_accesses;
    hits = t.s_hits;
    misses = t.s_misses;
    evictions = t.s_evictions;
    writebacks = t.s_writebacks;
    bank_conflicts = t.s_bank_conflicts;
    mshr_stalls = t.s_mshr_stalls;
    prefetches = t.s_prefetches;
  }

let reset_stats t =
  t.s_accesses <- 0;
  t.s_hits <- 0;
  t.s_misses <- 0;
  t.s_evictions <- 0;
  t.s_writebacks <- 0;
  t.s_bank_conflicts <- 0;
  t.s_mshr_stalls <- 0;
  t.s_prefetches <- 0

let miss_rate t =
  if t.s_accesses = 0 then 0.0 else float_of_int t.s_misses /. float_of_int t.s_accesses
