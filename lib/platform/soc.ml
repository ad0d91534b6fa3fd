type core_handle =
  | In of Uarch.Inorder.t
  | Oo of Uarch.Ooo.t

type t = {
  cfg : Config.t;
  cores : core_handle array;
  l1i : Cache.t array;
  l1d : Cache.t array;
  dtlb : Tlb.t array;
  itlb : Tlb.t array;
  l2 : Cache.t;
  llc : Cache.t option;
  bus : Interconnect.Bus.t;
  dram : Dram.t;
}

type core_stats = {
  instructions : int;
  cycles : int;
  loads : int;
  stores : int;
  mispredicts : int;
}

type result = {
  platform : string;
  ranks : int;
  cycles : int;
  seconds : float;
  instructions : int;
  per_core : core_stats array;
  l1d_misses : int;
  l1d_accesses : int;
  l2_misses : int;
  l2_accesses : int;
  dram_requests : int;
  tlb_walks : int;
  comm : Smpi.comm_stats option;
}

(* The downstream path below the shared L2: LLC if present, then DRAM.
   DRAM works in nanoseconds; convert at the boundary. *)
let downstream soc =
  let freq = Config.freq_hz soc.cfg in
  let dram_next ~cycle ~addr ~write =
    let t_ns = Util.Units.cycles_to_ns ~freq_hz:freq cycle in
    let done_ns = Dram.request soc.dram ~time_ns:t_ns ~addr ~write in
    Util.Units.ns_to_cycles ~freq_hz:freq done_ns
  in
  match soc.llc with
  | None -> dram_next
  | Some llc -> fun ~cycle ~addr ~write -> Cache.access llc ~next:dram_next ~cycle ~addr ~write

(* The path from a core's private L1s down: cross the system bus, look up
   the shared L2, and below that the downstream path.  Instruction-side
   refills do not train the L2 stream prefetcher (it observes data-side
   demand misses only). *)
let l2_path soc ~prefetchable =
  let next = downstream soc in
  let line = soc.cfg.Config.l2.Cache.line in
  fun ~cycle ~addr ~write ->
    let c = Interconnect.Bus.transfer soc.bus ~cycle ~bytes:line in
    Cache.access ~prefetchable soc.l2 ~next ~cycle:c ~addr ~write

(* Content-only (functional-warming) twin of the downstream path: same
   cache-content transitions, no bus/DRAM timing.  DRAM carries no content
   state, so the chain bottoms out in a no-op. *)
let warm_downstream soc : Cache.warm_next =
  match soc.llc with
  | None -> fun ~addr:_ ~write:_ -> ()
  | Some llc ->
    fun ~addr ~write -> Cache.warm_access llc ~next:(fun ~addr:_ ~write:_ -> ()) ~addr ~write

let warm_l2_path soc ~prefetchable : Cache.warm_next =
  let next = warm_downstream soc in
  fun ~addr ~write -> Cache.warm_access ~prefetchable soc.l2 ~next ~addr ~write

let memsys_for soc i =
  let l2d = l2_path soc ~prefetchable:true in
  let l2i = l2_path soc ~prefetchable:false in
  let wl2d = warm_l2_path soc ~prefetchable:true in
  let wl2i = warm_l2_path soc ~prefetchable:false in
  let l1d = soc.l1d.(i) in
  let l1i = soc.l1i.(i) in
  let dtlb = soc.dtlb.(i) in
  let itlb = soc.itlb.(i) in
  {
    Uarch.Memsys.load =
      (fun ~cycle ~addr ~size:_ ->
        let cycle = cycle + Tlb.translate dtlb ~addr in
        Cache.access l1d ~next:l2d ~cycle ~addr ~write:false);
    store =
      (fun ~cycle ~addr ~size:_ ->
        let cycle = cycle + Tlb.translate dtlb ~addr in
        Cache.access l1d ~next:l2d ~cycle ~addr ~write:true);
    ifetch =
      (fun ~cycle ~pc ->
        let cycle = cycle + Tlb.translate itlb ~addr:pc in
        Cache.access l1i ~next:l2i ~cycle ~addr:pc ~write:false);
    warm_load =
      (fun ~addr ~size:_ ->
        ignore (Tlb.translate dtlb ~addr);
        Cache.warm_access l1d ~next:wl2d ~addr ~write:false);
    warm_store =
      (fun ~addr ~size:_ ->
        ignore (Tlb.translate dtlb ~addr);
        Cache.warm_access l1d ~next:wl2d ~addr ~write:true);
    warm_ifetch =
      (fun ~pc ->
        ignore (Tlb.translate itlb ~addr:pc);
        Cache.warm_access l1i ~next:wl2i ~addr:pc ~write:false);
  }

let release t =
  Array.iter Cache.release t.l1i;
  Array.iter Cache.release t.l1d;
  Cache.release t.l2;
  Option.iter Cache.release t.llc

let create (cfg : Config.t) =
  let soc_partial =
    {
      cfg;
      cores = [||];
      l1i = Array.init cfg.cores (fun _ -> Cache.create cfg.l1i);
      l1d = Array.init cfg.cores (fun _ -> Cache.create cfg.l1d);
      dtlb = Array.init cfg.cores (fun _ -> Tlb.create cfg.dtlb);
      itlb = Array.init cfg.cores (fun _ -> Tlb.create cfg.itlb);
      l2 = Cache.create cfg.l2;
      llc = Option.map Cache.create cfg.llc;
      bus = Interconnect.Bus.create cfg.bus;
      dram = Dram.create cfg.dram;
    }
  in
  let cores =
    Array.init cfg.cores (fun i ->
        let mem = memsys_for soc_partial i in
        match cfg.core with
        | Config.Inorder c -> In (Uarch.Inorder.create c mem)
        | Config.Ooo c -> Oo (Uarch.Ooo.create c mem))
  in
  { soc_partial with cores }

let config soc = soc.cfg

let core_feed = function
  | In c -> Uarch.Inorder.feed c
  | Oo c -> Uarch.Ooo.feed c

let core_now = function
  | In c -> Uarch.Inorder.now c
  | Oo c -> Uarch.Ooo.now c

let core_advance = function
  | In c -> Uarch.Inorder.advance_to c
  | Oo c -> Uarch.Ooo.advance_to c

let core_stats_of = function
  | In c ->
    let s = Uarch.Inorder.stats c in
    {
      instructions = s.Uarch.Inorder.instructions;
      cycles = s.cycles;
      loads = s.loads;
      stores = s.stores;
      mispredicts = s.mispredicts;
    }
  | Oo c ->
    let s = Uarch.Ooo.stats c in
    {
      instructions = s.Uarch.Ooo.instructions;
      cycles = s.cycles;
      loads = s.loads;
      stores = s.stores;
      mispredicts = s.mispredicts;
    }

let fabric soc =
  let freq = Config.freq_hz soc.cfg in
  let latency_cycles = Util.Units.ns_to_cycles ~freq_hz:freq (soc.cfg.Config.mpi_latency_us *. 1000.0) in
  {
    Smpi.latency_cycles;
    transfer = (fun ~src:_ ~dst:_ ~cycle ~bytes -> Interconnect.Bus.transfer soc.bus ~cycle ~bytes);
  }

let collect soc ~ranks ~comm =
  let used = Array.sub soc.cores 0 ranks in
  let per_core = Array.map core_stats_of used in
  let cycles = Array.fold_left (fun acc c -> max acc (core_now c)) 0 used in
  let freq = Config.freq_hz soc.cfg in
  let l1d_stats = Array.map Cache.stats soc.l1d in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 l1d_stats in
  let l2s = Cache.stats soc.l2 in
  {
    platform = soc.cfg.Config.name;
    ranks;
    cycles;
    seconds = Util.Units.cycles_to_seconds ~freq_hz:freq cycles;
    instructions = Array.fold_left (fun acc (s : core_stats) -> acc + s.instructions) 0 per_core;
    per_core;
    l1d_misses = sum (fun s -> s.Cache.misses);
    l1d_accesses = sum (fun s -> s.Cache.accesses);
    l2_misses = l2s.Cache.misses;
    l2_accesses = l2s.Cache.accesses;
    dram_requests = (Dram.stats soc.dram).Dram.requests;
    tlb_walks =
      Array.fold_left (fun acc tlb -> acc + (Tlb.stats tlb).Tlb.walks) 0 soc.dtlb
      + Array.fold_left (fun acc tlb -> acc + (Tlb.stats tlb).Tlb.walks) 0 soc.itlb;
    comm;
  }

(* Full named counter snapshot of the memory hierarchy, used by the
   telemetry layer.  Values are cumulative over the SoC's lifetime and
   monotone, so callers can difference two snapshots to isolate a
   measured region (Runner does this to exclude setup streams). *)
let counters soc =
  let cache_counters prefix (s : Cache.stats) =
    [
      (prefix ^ ".accesses", s.Cache.accesses);
      (prefix ^ ".hits", s.Cache.hits);
      (prefix ^ ".misses", s.Cache.misses);
      (prefix ^ ".evictions", s.Cache.evictions);
      (prefix ^ ".writebacks", s.Cache.writebacks);
      (prefix ^ ".bank_conflicts", s.Cache.bank_conflicts);
      (prefix ^ ".mshr_stalls", s.Cache.mshr_stalls);
      (prefix ^ ".prefetches", s.Cache.prefetches);
    ]
  in
  let sum_caches arr =
    Array.fold_left
      (fun acc c ->
        let s = Cache.stats c in
        {
          Cache.accesses = acc.Cache.accesses + s.Cache.accesses;
          hits = acc.Cache.hits + s.Cache.hits;
          misses = acc.Cache.misses + s.Cache.misses;
          evictions = acc.Cache.evictions + s.Cache.evictions;
          writebacks = acc.Cache.writebacks + s.Cache.writebacks;
          bank_conflicts = acc.Cache.bank_conflicts + s.Cache.bank_conflicts;
          mshr_stalls = acc.Cache.mshr_stalls + s.Cache.mshr_stalls;
          prefetches = acc.Cache.prefetches + s.Cache.prefetches;
        })
      {
        Cache.accesses = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
        writebacks = 0;
        bank_conflicts = 0;
        mshr_stalls = 0;
        prefetches = 0;
      }
      arr
  in
  let tlb_counters prefix arr =
    let acc, l1m, walks =
      Array.fold_left
        (fun (a, m, w) tlb ->
          let s = Tlb.stats tlb in
          (a + s.Tlb.accesses, m + s.Tlb.l1_misses, w + s.Tlb.walks))
        (0, 0, 0) arr
    in
    [ (prefix ^ ".accesses", acc); (prefix ^ ".l1_misses", l1m); (prefix ^ ".walks", walks) ]
  in
  let core_counters =
    let instructions, cycles, loads, stores, mispredicts =
      Array.fold_left
        (fun (i, c, l, s, m) core ->
          let st = core_stats_of core in
          (i + st.instructions, max c st.cycles, l + st.loads, s + st.stores, m + st.mispredicts))
        (0, 0, 0, 0, 0) soc.cores
    in
    [
      ("core.instructions", instructions);
      ("core.cycles", cycles);
      ("core.loads", loads);
      ("core.stores", stores);
      ("core.mispredicts", mispredicts);
    ]
  in
  let bus_counters =
    let s = Interconnect.Bus.stats soc.bus in
    [
      ("bus.transfers", s.Interconnect.Bus.transfers);
      ("bus.beats", s.Interconnect.Bus.beats);
      ("bus.contended", s.Interconnect.Bus.contended);
      ("bus.busy_cycles", s.Interconnect.Bus.busy_cycles);
    ]
  in
  let dram_counters =
    let s = Dram.stats soc.dram in
    [
      ("dram.requests", s.Dram.requests);
      ("dram.reads", s.Dram.reads);
      ("dram.writes", s.Dram.writes);
      ("dram.row_hits", s.Dram.row_hits);
      ("dram.row_empty", s.Dram.row_empty);
      ("dram.row_conflicts", s.Dram.row_conflicts);
      ("dram.queue_stalls", s.Dram.queue_stalls);
    ]
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i (c : Dram.chan_stats) ->
                let p = Printf.sprintf "dram.chan%d" i in
                [
                  (p ^ ".requests", c.Dram.chan_requests);
                  (p ^ ".row_hits", c.Dram.chan_row_hits);
                  (p ^ ".row_empty", c.Dram.chan_row_empty);
                  (p ^ ".row_conflicts", c.Dram.chan_row_conflicts);
                  (p ^ ".queue_stalls", c.Dram.chan_queue_stalls);
                  (p ^ ".occupancy_sum", c.Dram.chan_occupancy_sum);
                  (p ^ ".occupancy_max", c.Dram.chan_occupancy_max);
                ])
              (Dram.channel_stats soc.dram)))
  in
  core_counters
  @ cache_counters "cache.l1i" (sum_caches soc.l1i)
  @ cache_counters "cache.l1d" (sum_caches soc.l1d)
  @ cache_counters "cache.l2" (Cache.stats soc.l2)
  @ (match soc.llc with None -> [] | Some llc -> cache_counters "cache.llc" (Cache.stats llc))
  @ tlb_counters "tlb.dtlb" soc.dtlb
  @ tlb_counters "tlb.itlb" soc.itlb
  @ bus_counters @ dram_counters

let run_ranks ?quantum ?telemetry soc program =
  let ranks = Array.length program in
  if ranks > soc.cfg.Config.cores then
    invalid_arg
      (Printf.sprintf "Soc.run_ranks: %d ranks on %d cores (%s)" ranks soc.cfg.Config.cores
         soc.cfg.Config.name);
  let ifaces =
    Array.init ranks (fun r ->
        let core = soc.cores.(r) in
        {
          Smpi.feed = core_feed core;
          now = (fun () -> core_now core);
          advance_to = core_advance core;
        })
  in
  let comm = Smpi.Engine.run ?quantum ?telemetry (fabric soc) ifaces program in
  collect soc ~ranks ~comm:(Some comm)

let run_stream soc stream =
  (match soc.cores.(0) with
  | In c -> Uarch.Inorder.run c stream
  | Oo c -> Uarch.Ooo.run c stream);
  collect soc ~ranks:1 ~comm:None

let warm_insn soc insn =
  match soc.cores.(0) with
  | In c -> Uarch.Inorder.warm c insn
  | Oo c -> Uarch.Ooo.warm c insn

(* Trace replay on core 0: cycle-identical to feeding the equivalent
   Insn.t stream, without the per-instruction allocation. *)

let feed_trace soc tr ~lo ~hi =
  match soc.cores.(0) with
  | In c -> Uarch.Inorder.feed_trace c tr ~lo ~hi
  | Oo c -> Uarch.Ooo.feed_trace c tr ~lo ~hi

let warm_trace soc tr ~lo ~hi =
  match soc.cores.(0) with
  | In c -> Uarch.Inorder.warm_trace c tr ~lo ~hi
  | Oo c -> Uarch.Ooo.warm_trace c tr ~lo ~hi

let run_trace soc tr =
  feed_trace soc tr ~lo:0 ~hi:(Trace.length tr);
  collect soc ~ranks:1 ~comm:None

let memsys_of_core soc i = memsys_for soc i

let core_iface soc i =
  let core = soc.cores.(i) in
  {
    Smpi.feed = core_feed core;
    now = (fun () -> core_now core);
    advance_to = core_advance core;
  }

let local_transfer soc ~cycle ~bytes = Interconnect.Bus.transfer soc.bus ~cycle ~bytes
let mpi_latency_cycles soc = (fabric soc).Smpi.latency_cycles
let collect_result soc ~ranks ~comm = collect soc ~ranks ~comm
