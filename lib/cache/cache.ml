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

let config ?(hit_latency = 2) ?(mshrs = 4) ?(banks = 1) ?(write_back = true) ?(line = Util.Arch.cache_line_bytes)
    ?(prefetch_next = 0) ~name ~sets ~ways () =
  if not (Util.Arch.is_pow2 sets) then invalid_arg "Cache.config: sets must be a power of two";
  if not (Util.Arch.is_pow2 line) then invalid_arg "Cache.config: line must be a power of two";
  if not (Util.Arch.is_pow2 banks) then invalid_arg "Cache.config: banks must be a power of two";
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
     is above [cold_clock]; the other arrays mean something only
     for valid ways. *)
  tags : int array;  (* line address *)
  last_use : int array;  (* [use_clock] at the way's last touch *)
  fill_done : int array;  (* cycle the line's refill completes *)
  flags : Bytes.t;  (* [dirty] and [prefetched] bits, a byte per way *)
  bank_free : int array;  (* cycle at which each bank accepts a new access *)
  mshr_done : Util.Ring.t;  (* completion cycles of outstanding misses *)
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

(* Released caches, keyed by their number of lines: sizes, not
   geometries, match, so a 16384x64 LLC takes over a 65536x16 one's
   arrays.  Taking a spare over costs O(1), not a clear of every line:
   the new cache's use clock starts where the old one stopped, so every
   way the old cache touched reads as invalid. *)
let spare : (int, t) Util.Spare.t = Util.Spare.create ()

let release t = Util.Spare.put spare (Array.length t.tags) t

let create cfg =
  let n = cfg.sets * cfg.ways in
  let tags, last_use, flags, fill_done, clock =
    match Util.Spare.take spare n with
    | Some c -> (c.tags, c.last_use, c.flags, c.fill_done, c.use_clock)
    | None -> (Array.make n (-1), Array.make n 0, Bytes.make n '\000', Array.make n 0, 0)
  in
  {
    cfg;
    line_shift = Util.Arch.log2 cfg.line;
    tags;
    last_use;
    flags;
    fill_done;
    bank_free = Array.make cfg.banks 0;
    mshr_done = Util.Ring.create cfg.mshrs;
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

(* One pass over [set]: the way holding [line], else [lnot] the victim, the
   first invalid way or else the least recently used one.  An invalid
   way's stamp is below every valid way's, so once [best] is invalid no
   later way replaces it.  A way left from before the cache was last made
   cold may still hold [line]; it does not hit.  Local refs, not an inner
   recursive function (a closure per call without flambda); indices are
   in range by construction. *)
let lookup t set line =
  let ways = t.cfg.ways in
  let base = set * ways in
  let found = ref (-1) in
  let best = ref base in
  let best_use = ref (Array.unsafe_get t.last_use base) in
  let w = ref 0 in
  while !w < ways do
    let i = base + !w in
    let use = Array.unsafe_get t.last_use i in
    if use > t.cold_clock && Array.unsafe_get t.tags i = line then begin
      found := i;
      w := ways
    end
    else begin
      if !best_use > t.cold_clock && use < !best_use then begin
        best := i;
        best_use := use
      end;
      incr w
    end
  done;
  if !found >= 0 then !found else lnot !best

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

(* Per-way bits: the line is dirty / was prefetched and not yet demanded.
   A byte per way, not a [bool array]'s word: a 1 M-way LLC keeps 1 MB of
   flags, not 16. *)
let dirty = 1
let prefetched = 2
let[@inline] flags_of t slot = Char.code (Bytes.unsafe_get t.flags slot)
let[@inline] set_flags t slot v = Bytes.unsafe_set t.flags slot (Char.unsafe_chr v)

(* Install [line] (absent) over [victim]. *)
let install t victim line ~fill ~flags ~next =
  let evicting = Array.unsafe_get t.last_use victim > t.cold_clock in
  if evicting then t.s_evictions <- t.s_evictions + 1;
  if evicting && flags_of t victim land dirty <> 0 && t.cfg.write_back then begin
    t.s_writebacks <- t.s_writebacks + 1;
    (* The write-back consumes downstream bandwidth but is off the demand
       access's critical path. *)
    ignore (next ~cycle:fill ~addr:(t.tags.(victim)) ~write:true)
  end;
  t.tags.(victim) <- line;
  set_flags t victim flags;
  t.fill_done.(victim) <- fill;
  touch t victim

(* Bring one line in as a prefetch (no-op if present). *)
let prefetch_line t line ~cycle ~next =
  let way = lookup t (set_of t line) line in
  if way < 0 then begin
    t.s_prefetches <- t.s_prefetches + 1;
    let fill = next ~cycle ~addr:line ~write:false in
    install t (lnot way) line ~fill ~flags:prefetched ~next
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
  let slot = lookup t (set_of t addr) line in
  if slot >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    touch t slot;
    if write then set_flags t slot (flags_of t slot lor dirty);
    (* Tagged stream prefetch: consuming a prefetched line keeps the
       stream running [prefetch_next] lines ahead. *)
    if flags_of t slot land prefetched <> 0 then begin
      set_flags t slot (flags_of t slot land dirty);
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
    let issue =
      let free = Util.Ring.min t.mshr_done in
      if free <= start then start
      else begin
        t.s_mshr_stalls <- t.s_mshr_stalls + 1;
        free
      end
    in
    (* Refill from downstream; the tag lookup has already cost hit_latency. *)
    let fill_done = next ~cycle:(issue + t.cfg.hit_latency) ~addr:line ~write:false in
    Util.Ring.replace_min t.mshr_done fill_done;
    install t (lnot slot) line ~fill:fill_done ~flags:(if write && t.cfg.write_back then dirty else 0) ~next;
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
  lookup t (set_of t addr) line >= 0

let flush t =
  t.cold_clock <- t.use_clock;
  Array.fill t.streams 0 (Array.length t.streams) min_int;
  Array.fill t.bank_free 0 (Array.length t.bank_free) 0;
  Util.Ring.reset t.mshr_done

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

let reset t =
  flush t;
  reset_stats t;
  t.stream_rr <- 0

let miss_rate t =
  if t.s_accesses = 0 then 0.0 else float_of_int t.s_misses /. float_of_int t.s_accesses
