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
  tags : int array;  (* sets*ways, -1 = invalid; stores line address *)
  last_use : int array;  (* monotone use counter per way *)
  dirty : bool array;
  fill_done : int array;  (* cycle the line's refill completes *)
  pref_tag : bool array;  (* line was prefetched and not yet demanded *)
  bank_free : int array;  (* cycle at which each bank accepts a new access *)
  mshr_done : int array;  (* completion cycles of outstanding misses *)
  mutable use_clock : int;
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
   held at most as many times as caches of it were ever live at once. *)
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
  let tags, last_use, dirty, fill_done, pref_tag =
    match take_spare n with
    | Some c ->
      Array.fill c.tags 0 n (-1);
      Array.fill c.last_use 0 n 0;
      Array.fill c.dirty 0 n false;
      Array.fill c.fill_done 0 n 0;
      Array.fill c.pref_tag 0 n false;
      (c.tags, c.last_use, c.dirty, c.fill_done, c.pref_tag)
    | None -> (Array.make n (-1), Array.make n 0, Array.make n false, Array.make n 0, Array.make n false)
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
    use_clock = 0;
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

(* Loops below use local refs and unsafe array accesses rather than inner
   recursive functions — without flambda the latter allocate a closure per
   call, and these run once per memory access in the replay hot loop.
   Indices are in range by construction ([set] < sets, [w] < ways). *)
let find_way t set line =
  let base = set * t.cfg.ways in
  let found = ref (-1) in
  let w = ref 0 in
  let ways = t.cfg.ways in
  while !w < ways do
    if Array.unsafe_get t.tags (base + !w) = line then begin
      found := base + !w;
      w := ways
    end
    else incr w
  done;
  !found

let victim_way t set =
  let base = set * t.cfg.ways in
  let best = ref base in
  for w = 1 to t.cfg.ways - 1 do
    let i = base + w in
    let tag_i = Array.unsafe_get t.tags i in
    let tag_b = Array.unsafe_get t.tags !best in
    if tag_i = -1 && tag_b <> -1 then best := i
    else if
      tag_i <> -1 && tag_b <> -1
      && Array.unsafe_get t.last_use i < Array.unsafe_get t.last_use !best
    then best := i
  done;
  !best

let touch t slot =
  t.use_clock <- t.use_clock + 1;
  Array.unsafe_set t.last_use slot t.use_clock

(* Stream table scan / advance, shared by timed and warm access paths. *)
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

(* Reserve an MSHR for a miss issued at [cycle]; returns the cycle at which
   the miss can actually be sent downstream. *)
let grab_mshr t cycle =
  let best = ref 0 in
  for i = 1 to t.cfg.mshrs - 1 do
    if Array.unsafe_get t.mshr_done i < Array.unsafe_get t.mshr_done !best then best := i
  done;
  let start =
    if t.mshr_done.(!best) <= cycle then cycle
    else begin
      t.s_mshr_stalls <- t.s_mshr_stalls + 1;
      t.mshr_done.(!best)
    end
  in
  (!best, start)

(* Install [line] (absent) by evicting a victim; returns the slot. *)
let install t set line ~fill ~dirty ~prefetched ~next =
  let victim = victim_way t set in
  if t.tags.(victim) <> -1 then t.s_evictions <- t.s_evictions + 1;
  if t.tags.(victim) <> -1 && t.dirty.(victim) && t.cfg.write_back then begin
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
    let mshr, issue = grab_mshr t start in
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

(* Content-only access for functional warming: the same tag / LRU / dirty /
   stream-table / prefetch state transitions as [access] — so detailed
   simulation resumes against the cache contents a full run would have —
   with none of the latency bookkeeping (banks, MSHRs, fill timestamps).
   Warmed fills get [fill_done = 0]: their refill is long past by the time
   a detailed interval can hit them. *)
type warm_next = addr:int -> write:bool -> unit

let rec warm_install t set line ~dirty ~prefetched ~(next : warm_next) =
  let victim = victim_way t set in
  if t.tags.(victim) <> -1 then begin
    t.s_evictions <- t.s_evictions + 1;
    if t.dirty.(victim) && t.cfg.write_back then begin
      t.s_writebacks <- t.s_writebacks + 1;
      next ~addr:t.tags.(victim) ~write:true
    end
  end;
  t.tags.(victim) <- line;
  t.dirty.(victim) <- dirty;
  t.fill_done.(victim) <- 0;
  t.pref_tag.(victim) <- prefetched;
  touch t victim

and warm_prefetch_line t line ~(next : warm_next) =
  let set = set_of t line in
  if find_way t set line < 0 then begin
    t.s_prefetches <- t.s_prefetches + 1;
    next ~addr:line ~write:false;
    warm_install t set line ~dirty:false ~prefetched:true ~next
  end

let warm_access ?(prefetchable = true) t ~(next : warm_next) ~addr ~write =
  t.s_accesses <- t.s_accesses + 1;
  let line = line_addr t addr in
  let set = set_of t addr in
  let slot = find_way t set line in
  if slot >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    touch t slot;
    if write then t.dirty.(slot) <- true;
    if t.pref_tag.(slot) then begin
      t.pref_tag.(slot) <- false;
      if t.cfg.prefetch_next > 0 then
        warm_prefetch_line t (line + (t.cfg.prefetch_next * t.cfg.line)) ~next
    end
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    let sequential = prefetchable && stream_hit t line in
    (if sequential then stream_advance t line
     else if prefetchable then begin
       t.streams.(t.stream_rr) <- line + t.cfg.line;
       t.stream_rr <- (t.stream_rr + 1) mod Array.length t.streams
     end);
    next ~addr:line ~write:false;
    warm_install t set line ~dirty:(write && t.cfg.write_back) ~prefetched:false ~next;
    if t.cfg.prefetch_next > 0 && sequential then
      for k = 1 to t.cfg.prefetch_next do
        warm_prefetch_line t (line + (k * t.cfg.line)) ~next
      done
  end

let probe t ~addr =
  let line = line_addr t addr in
  find_way t (set_of t addr) line >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.fill t.fill_done 0 (Array.length t.fill_done) 0;
  Array.fill t.pref_tag 0 (Array.length t.pref_tag) false;
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
