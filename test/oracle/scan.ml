(* Reference models for the memory path's bookkeeping: the linear scans
   the simulator used before its constant-time structures, kept here so
   that property tests can drive both with the same streams and compare
   every latency and counter.  Each is the obvious O(n) formulation:
   slower, but easy to check by eye. *)

(* A bounded multiset of completion times: take the earliest (the first
   of equal minima, by an argmin scan) and overwrite it. *)
module Slots = struct
  type t = int array

  let create n : t = Array.make n 0

  let argmin (q : t) =
    let best = ref 0 in
    for i = 1 to Array.length q - 1 do
      if q.(i) < q.(!best) then best := i
    done;
    !best

  let min q = q.(argmin q)
  let replace_min q v = q.(argmin q) <- v
end

(* Fully associative L1 with LRU by use stamps: a scan finds the page, a
   second scan the least recently stamped slot (first of equals). *)
module Tlb = struct
  module T = Platform.Tlb

  type t = {
    cfg : T.config;
    l1_pages : int array;
    l1_use : int array;
    l2_pages : int array;
    mutable clock : int;
    mutable accesses : int;
    mutable l1_misses : int;
    mutable walks : int;
  }

  let create (cfg : T.config) =
    {
      cfg;
      l1_pages = Array.make cfg.l1_entries (-1);
      l1_use = Array.make cfg.l1_entries 0;
      l2_pages = Array.make (max 1 cfg.l2_entries) (-1);
      clock = 0;
      accesses = 0;
      l1_misses = 0;
      walks = 0;
    }

  let translate t ~addr =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let page = addr / t.cfg.page_bytes in
    let n = t.cfg.l1_entries in
    let slot = ref (-1) in
    for i = n - 1 downto 0 do
      if t.l1_pages.(i) = page then slot := i
    done;
    if !slot >= 0 then begin
      t.l1_use.(!slot) <- t.clock;
      0
    end
    else begin
      t.l1_misses <- t.l1_misses + 1;
      let victim = ref 0 in
      for i = 1 to n - 1 do
        if t.l1_use.(i) < t.l1_use.(!victim) then victim := i
      done;
      t.l1_pages.(!victim) <- page;
      t.l1_use.(!victim) <- t.clock;
      if t.cfg.l2_entries > 0 && t.l2_pages.(page land (t.cfg.l2_entries - 1)) = page then
        t.cfg.l2_latency
      else begin
        t.walks <- t.walks + 1;
        if t.cfg.l2_entries > 0 then t.l2_pages.(page land (t.cfg.l2_entries - 1)) <- page;
        t.cfg.walk_latency
      end
    end

  let stats t = { T.accesses = t.accesses; l1_misses = t.l1_misses; walks = t.walks }
end

(* Set-associative cache: a way scan for the hit, a second scan for the
   victim (first invalid way, else least recently used), and an argmin
   scan over the MSHRs.  Lines start invalid; there is no reuse. *)
module Cache = struct
  module C = Cache

  type t = {
    cfg : C.config;
    tags : int array;
    valid : bool array;
    last_use : int array;
    dirty : bool array;
    fill_done : int array;
    pref_tag : bool array;
    bank_free : int array;
    mshr_done : Slots.t;
    mutable use_clock : int;
    streams : int array;
    mutable stream_rr : int;
    mutable s : C.stats;
  }

  let create (cfg : C.config) =
    let n = cfg.sets * cfg.ways in
    {
      cfg;
      tags = Array.make n (-1);
      valid = Array.make n false;
      last_use = Array.make n 0;
      dirty = Array.make n false;
      fill_done = Array.make n 0;
      pref_tag = Array.make n false;
      bank_free = Array.make cfg.banks 0;
      mshr_done = Slots.create cfg.mshrs;
      use_clock = 0;
      streams = Array.make 8 min_int;
      stream_rr = 0;
      s =
        {
          C.accesses = 0;
          hits = 0;
          misses = 0;
          evictions = 0;
          writebacks = 0;
          bank_conflicts = 0;
          mshr_stalls = 0;
          prefetches = 0;
        };
    }

  let line_of t addr = addr / t.cfg.line * t.cfg.line
  let set_of t addr = addr / t.cfg.line mod t.cfg.sets

  let find_way t set line =
    let found = ref (-1) in
    for w = t.cfg.ways - 1 downto 0 do
      let i = (set * t.cfg.ways) + w in
      if t.valid.(i) && t.tags.(i) = line then found := i
    done;
    !found

  let victim_way t set =
    let base = set * t.cfg.ways in
    let best = ref base in
    for w = 1 to t.cfg.ways - 1 do
      let i = base + w in
      if t.valid.(!best) && ((not t.valid.(i)) || t.last_use.(i) < t.last_use.(!best)) then best := i
    done;
    !best

  let touch t i =
    t.use_clock <- t.use_clock + 1;
    t.last_use.(i) <- t.use_clock

  let install t set line ~fill ~dirty ~prefetched ~(next : C.next_level) =
    let v = victim_way t set in
    if t.valid.(v) then begin
      t.s <- { t.s with evictions = t.s.evictions + 1 };
      if t.dirty.(v) && t.cfg.write_back then begin
        t.s <- { t.s with writebacks = t.s.writebacks + 1 };
        ignore (next ~cycle:fill ~addr:t.tags.(v) ~write:true)
      end
    end;
    t.tags.(v) <- line;
    t.valid.(v) <- true;
    t.dirty.(v) <- dirty;
    t.fill_done.(v) <- fill;
    t.pref_tag.(v) <- prefetched;
    touch t v

  let prefetch_line t line ~cycle ~next =
    let set = set_of t line in
    if find_way t set line < 0 then begin
      t.s <- { t.s with prefetches = t.s.prefetches + 1 };
      let fill = next ~cycle ~addr:line ~write:false in
      install t set line ~fill ~dirty:false ~prefetched:true ~next
    end

  let access ?(prefetchable = true) t ~next ~cycle ~addr ~write =
    t.s <- { t.s with accesses = t.s.accesses + 1 };
    let bank = addr / t.cfg.line mod t.cfg.banks in
    let start =
      if t.bank_free.(bank) <= cycle then cycle
      else begin
        t.s <- { t.s with bank_conflicts = t.s.bank_conflicts + 1 };
        t.bank_free.(bank)
      end
    in
    t.bank_free.(bank) <- start + 1;
    let line = line_of t addr in
    let set = set_of t addr in
    let slot = find_way t set line in
    if slot >= 0 then begin
      t.s <- { t.s with hits = t.s.hits + 1 };
      touch t slot;
      if write then t.dirty.(slot) <- true;
      if t.pref_tag.(slot) then begin
        t.pref_tag.(slot) <- false;
        if t.cfg.prefetch_next > 0 then
          prefetch_line t (line + (t.cfg.prefetch_next * t.cfg.line)) ~cycle:(start + t.cfg.hit_latency) ~next
      end;
      max (start + t.cfg.hit_latency) t.fill_done.(slot)
    end
    else begin
      t.s <- { t.s with misses = t.s.misses + 1 };
      let sequential = prefetchable && Array.mem line t.streams in
      if sequential then
        Array.iteri (fun i l -> if l = line then t.streams.(i) <- line + t.cfg.line) t.streams
      else if prefetchable then begin
        t.streams.(t.stream_rr) <- line + t.cfg.line;
        t.stream_rr <- (t.stream_rr + 1) mod Array.length t.streams
      end;
      let free = Slots.min t.mshr_done in
      let issue =
        if free <= start then start
        else begin
          t.s <- { t.s with mshr_stalls = t.s.mshr_stalls + 1 };
          free
        end
      in
      let fill = next ~cycle:(issue + t.cfg.hit_latency) ~addr:line ~write:false in
      Slots.replace_min t.mshr_done fill;
      install t set line ~fill ~dirty:(write && t.cfg.write_back) ~prefetched:false ~next;
      if t.cfg.prefetch_next > 0 && sequential then
        for k = 1 to t.cfg.prefetch_next do
          prefetch_line t (line + (k * t.cfg.line)) ~cycle:(issue + t.cfg.hit_latency) ~next
        done;
      fill
    end

  let probe t ~addr = find_way t (set_of t addr) (line_of t addr) >= 0
  let stats t = t.s
end

(* DRAM channels with a request queue scanned on every request: the
   argmin slot admits, and the same pass counts the requests still in
   flight.  Addresses decode by division. *)
module Dram = struct
  module D = Dram

  type chan = {
    open_row : int array;
    ready : float array;
    mutable bus_free : float;
    queue : float array;
    mutable c : D.chan_stats;
  }

  type t = { cfg : D.config; chans : chan array; mutable s : D.stats }

  let create (cfg : D.config) =
    let nbanks = cfg.ranks * cfg.banks_per_rank in
    let chan _ =
      {
        open_row = Array.make nbanks (-1);
        ready = Array.make nbanks 0.0;
        bus_free = 0.0;
        queue = Array.make cfg.queue_depth 0.0;
        c =
          {
            D.chan_requests = 0;
            chan_row_hits = 0;
            chan_row_empty = 0;
            chan_row_conflicts = 0;
            chan_queue_stalls = 0;
            chan_occupancy_sum = 0;
            chan_occupancy_max = 0;
          };
      }
    in
    {
      cfg;
      chans = Array.init cfg.channels chan;
      s =
        {
          D.requests = 0;
          reads = 0;
          writes = 0;
          row_hits = 0;
          row_empty = 0;
          row_conflicts = 0;
          queue_stalls = 0;
          data_bus_ns = 0.0;
        };
    }

  let burst (cfg : D.config) =
    float_of_int cfg.line_bytes /. (cfg.data_rate_mts *. float_of_int cfg.bus_bytes) *. 1000.0

  let fmax (a : float) b = if b > a then b else a

  let request t ~time_ns ~addr ~write =
    let cfg = t.cfg in
    let line = addr / cfg.line_bytes in
    let ch = t.chans.(line mod cfg.channels) in
    let nbanks = Array.length ch.open_row in
    let per_chan_line = line / cfg.channels in
    let bank = per_chan_line mod nbanks in
    let row = per_chan_line / nbanks * cfg.line_bytes / cfg.row_bytes in
    let slot = ref 0 and in_flight = ref 0 in
    Array.iteri
      (fun i d ->
        if d < ch.queue.(!slot) then slot := i;
        if d > time_ns then incr in_flight)
      ch.queue;
    let stalled = ch.queue.(!slot) > time_ns in
    let admitted = if stalled then ch.queue.(!slot) else time_ns in
    let issue = fmax admitted (fmax ch.ready.(bank) 0.0) +. cfg.ctrl_latency_ns in
    let tm = cfg.timing in
    let hit = ch.open_row.(bank) = row and empty = ch.open_row.(bank) = -1 in
    let array_ns =
      if hit then tm.t_cas_ns
      else if empty then tm.t_rcd_ns +. tm.t_cas_ns
      else tm.t_rp_ns +. tm.t_rcd_ns +. tm.t_cas_ns
    in
    ch.open_row.(bank) <- row;
    let data_ready = issue +. array_ns in
    let b = burst cfg in
    let completion = fmax data_ready ch.bus_free +. b in
    ch.bus_free <- completion;
    ch.ready.(bank) <- data_ready;
    ch.queue.(!slot) <- completion;
    let n b = if b then 1 else 0 in
    let hit = hit and conflict = (not hit) && not empty and empty = (not hit) && empty in
    let s = t.s in
    t.s <-
      {
        D.requests = s.requests + 1;
        reads = s.reads + n (not write);
        writes = s.writes + n write;
        row_hits = s.row_hits + n hit;
        row_empty = s.row_empty + n empty;
        row_conflicts = s.row_conflicts + n conflict;
        queue_stalls = s.queue_stalls + n stalled;
        data_bus_ns = s.data_bus_ns +. b;
      };
    let c = ch.c in
    ch.c <-
      {
        D.chan_requests = c.chan_requests + 1;
        chan_row_hits = c.chan_row_hits + n hit;
        chan_row_empty = c.chan_row_empty + n empty;
        chan_row_conflicts = c.chan_row_conflicts + n conflict;
        chan_queue_stalls = c.chan_queue_stalls + n stalled;
        chan_occupancy_sum = c.chan_occupancy_sum + !in_flight;
        chan_occupancy_max = max c.chan_occupancy_max !in_flight;
      };
    completion

  let stats t = t.s
  let channel_stats t = Array.map (fun ch -> ch.c) t.chans
end
