(* Tests for the cache timing model. *)

let flat_next latency : Cache.next_level = fun ~cycle ~addr:_ ~write:_ -> cycle + latency

let small ?(ways = 2) ?(sets = 4) ?(mshrs = 2) ?(banks = 1) ?(hit_latency = 2) () =
  Cache.create (Cache.config ~name:"t" ~sets ~ways ~mshrs ~banks ~hit_latency ())

let test_size () =
  let c = Cache.config ~name:"l1" ~sets:64 ~ways:8 () in
  Alcotest.(check int) "32 KiB" (32 * 1024) (Cache.size_bytes c)

let test_cold_miss_then_hit () =
  let c = small () in
  let next = flat_next 100 in
  let t1 = Cache.access c ~next ~cycle:0 ~addr:0x1000 ~write:false in
  Alcotest.(check bool) "miss pays downstream" true (t1 >= 100);
  let t2 = Cache.access c ~next ~cycle:t1 ~addr:0x1008 ~write:false in
  Alcotest.(check int) "same-line hit" (t1 + 2) t2;
  let s = Cache.stats c in
  Alcotest.(check int) "1 miss" 1 s.Cache.misses;
  Alcotest.(check int) "1 hit" 1 s.Cache.hits

let test_lru_eviction () =
  (* 2-way set: touch 3 distinct lines mapping to one set; the first is
     evicted, the second (recently used) survives. *)
  let c = small ~ways:2 ~sets:4 () in
  let next = flat_next 10 in
  let stride = 4 * 64 in
  (* same set *)
  let a0 = 0x0 and a1 = stride and a2 = 2 * stride in
  ignore (Cache.access c ~next ~cycle:0 ~addr:a0 ~write:false);
  ignore (Cache.access c ~next ~cycle:50 ~addr:a1 ~write:false);
  ignore (Cache.access c ~next ~cycle:100 ~addr:a2 ~write:false);
  Alcotest.(check bool) "a0 evicted" false (Cache.probe c ~addr:a0);
  Alcotest.(check bool) "a1 resident" true (Cache.probe c ~addr:a1);
  Alcotest.(check bool) "a2 resident" true (Cache.probe c ~addr:a2)

let test_lru_touch_refreshes () =
  let c = small ~ways:2 ~sets:4 () in
  let next = flat_next 10 in
  let stride = 4 * 64 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:50 ~addr:stride ~write:false);
  (* touch 0 again: now stride is LRU *)
  ignore (Cache.access c ~next ~cycle:100 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:150 ~addr:(2 * stride) ~write:false);
  Alcotest.(check bool) "0 survives (recently used)" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "stride evicted" false (Cache.probe c ~addr:stride)

let test_writeback_on_dirty_eviction () =
  let c = small ~ways:1 ~sets:1 () in
  let next = flat_next 10 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:true);
  (* dirty *)
  ignore (Cache.access c ~next ~cycle:50 ~addr:64 ~write:false);
  (* evicts dirty line *)
  let s = Cache.stats c in
  Alcotest.(check int) "one writeback" 1 s.Cache.writebacks

let test_clean_eviction_no_writeback () =
  let c = small ~ways:1 ~sets:1 () in
  let next = flat_next 10 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:50 ~addr:64 ~write:false);
  Alcotest.(check int) "no writeback" 0 (Cache.stats c).Cache.writebacks

let test_mshr_limits_parallelism () =
  (* Two misses in flight max: a third concurrent miss must wait. *)
  let c = small ~mshrs:2 ~sets:16 ~ways:2 () in
  let next = flat_next 100 in
  let t1 = Cache.access c ~next ~cycle:0 ~addr:0x0000 ~write:false in
  let t2 = Cache.access c ~next ~cycle:1 ~addr:0x4000 ~write:false in
  let t3 = Cache.access c ~next ~cycle:2 ~addr:0x8000 ~write:false in
  Alcotest.(check bool) "first two overlap" true (t2 - t1 < 50);
  Alcotest.(check bool) "third serialized behind an MSHR" true (t3 >= t1 + 100);
  Alcotest.(check bool) "mshr stall counted" true ((Cache.stats c).Cache.mshr_stalls >= 1)

let test_bank_conflicts () =
  let c = small ~banks:2 ~sets:16 ~ways:2 () in
  let next = flat_next 10 in
  (* Warm two lines in the same bank (bank = line mod 2). *)
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:100 ~addr:(2 * 64 * 16) ~write:false);
  Cache.reset_stats c;
  (* Concurrent hits to same bank serialize. *)
  let t1 = Cache.access c ~next ~cycle:200 ~addr:0 ~write:false in
  let t2 = Cache.access c ~next ~cycle:200 ~addr:(2 * 64 * 16) ~write:false in
  Alcotest.(check bool) "second delayed" true (t2 > t1);
  Alcotest.(check int) "conflict counted" 1 (Cache.stats c).Cache.bank_conflicts

let test_different_banks_parallel () =
  let c = small ~banks:2 ~sets:16 ~ways:2 () in
  let next = flat_next 10 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:100 ~addr:64 ~write:false);
  Cache.reset_stats c;
  let t1 = Cache.access c ~next ~cycle:200 ~addr:0 ~write:false in
  let t2 = Cache.access c ~next ~cycle:200 ~addr:64 ~write:false in
  Alcotest.(check int) "parallel hits" t1 t2;
  Alcotest.(check int) "no conflicts" 0 (Cache.stats c).Cache.bank_conflicts

let test_flush () =
  let c = small () in
  let next = flat_next 10 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  Alcotest.(check bool) "resident" true (Cache.probe c ~addr:0);
  Cache.flush c;
  Alcotest.(check bool) "gone" false (Cache.probe c ~addr:0)

let test_miss_rate () =
  let c = small ~sets:64 ~ways:8 () in
  let next = flat_next 10 in
  for i = 0 to 9 do
    ignore (Cache.access c ~next ~cycle:(i * 100) ~addr:(i mod 8 * 8) ~write:false)
  done;
  (* 10 accesses within one line: 1 miss, 9 hits *)
  Alcotest.(check (float 1e-9)) "miss rate 0.1" 0.1 (Cache.miss_rate c)

let test_invalid_config () =
  Alcotest.check_raises "bad sets" (Invalid_argument "Cache.config: sets must be a power of two")
    (fun () -> ignore (Cache.config ~name:"x" ~sets:3 ~ways:1 ()))

let test_reuse_after_release () =
  (* A cache built on a released cache's arrays must start as cold as a
     fresh one: same completion cycles and counters over a stream that
     dirties lines, trains the prefetcher and evicts by LRU. *)
  let cfg = Cache.config ~name:"r" ~sets:4 ~ways:2 ~mshrs:2 ~prefetch_next:2 () in
  let next = flat_next 20 in
  let replay c =
    let rng = Random.State.make [| 7 |] in
    let cycles =
      List.init 300 (fun i ->
          let addr = 64 * Random.State.int rng 48 in
          Cache.access c ~next ~cycle:(10 * i) ~addr ~write:(Random.State.bool rng))
    in
    (cycles, Cache.stats c)
  in
  let fresh = replay (Cache.create cfg) in
  let used = Cache.create cfg in
  ignore (replay used);
  Cache.release used;
  Alcotest.(check bool) "reused cache replays like a fresh one" true (replay (Cache.create cfg) = fresh)

let prop_monotone_completion =
  (* Completion cycle never precedes issue cycle. *)
  QCheck.Test.make ~name:"cache completion >= issue" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 0 0xFFFF))
    (fun (cycle, addr) ->
      let c = small ~sets:16 ~ways:2 () in
      let next = flat_next 30 in
      Cache.access c ~next ~cycle ~addr ~write:false >= cycle)

let prop_second_access_hits =
  QCheck.Test.make ~name:"immediate re-access hits" ~count:200
    QCheck.(int_range 0 0xFFFFF)
    (fun addr ->
      let c = small ~sets:64 ~ways:4 () in
      let next = flat_next 50 in
      let t1 = Cache.access c ~next ~cycle:0 ~addr ~write:false in
      ignore (Cache.access c ~next ~cycle:t1 ~addr ~write:false);
      (Cache.stats c).Cache.hits = 1)

let suite =
  [
    Alcotest.test_case "size calculation" `Quick test_size;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "LRU touch refreshes" `Quick test_lru_touch_refreshes;
    Alcotest.test_case "dirty eviction writes back" `Quick test_writeback_on_dirty_eviction;
    Alcotest.test_case "clean eviction silent" `Quick test_clean_eviction_no_writeback;
    Alcotest.test_case "MSHRs bound parallelism" `Quick test_mshr_limits_parallelism;
    Alcotest.test_case "bank conflicts serialize" `Quick test_bank_conflicts;
    Alcotest.test_case "distinct banks parallel" `Quick test_different_banks_parallel;
    Alcotest.test_case "flush invalidates" `Quick test_flush;
    Alcotest.test_case "miss rate" `Quick test_miss_rate;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Alcotest.test_case "reuse after release" `Quick test_reuse_after_release;
    QCheck_alcotest.to_alcotest prop_monotone_completion;
    QCheck_alcotest.to_alcotest prop_second_access_hits;
  ]

(* --- stream prefetcher --- *)

let prefetching ?(depth = 4) () =
  Cache.create (Cache.config ~name:"pf" ~sets:64 ~ways:8 ~prefetch_next:depth ())

let test_sequential_stream_prefetches () =
  let c = prefetching () in
  let next = flat_next 100 in
  (* two consecutive line misses confirm a stream *)
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:200 ~addr:64 ~write:false);
  Alcotest.(check bool) "burst launched" true ((Cache.stats c).Cache.prefetches >= 4);
  (* the next lines are now present *)
  Alcotest.(check bool) "line +2 resident" true (Cache.probe c ~addr:128);
  Alcotest.(check bool) "line +4 resident" true (Cache.probe c ~addr:(64 * 4))

let test_random_misses_never_prefetch () =
  let c = prefetching () in
  let next = flat_next 100 in
  let rng = Util.Rng.create 9 in
  for _ = 1 to 50 do
    let addr = Util.Rng.int rng 4096 * 8192 in
    ignore (Cache.access c ~next ~cycle:0 ~addr ~write:false)
  done;
  Alcotest.(check int) "no prefetches on random misses" 0 (Cache.stats c).Cache.prefetches

let test_prefetched_hit_waits_for_fill () =
  let c = prefetching () in
  let next = flat_next 500 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:600 ~addr:64 ~write:false);
  (* line 128 was prefetched around cycle 600 and fills at ~1100; an
     immediate demand hit must wait for the fill, not return at +2 *)
  let t = Cache.access c ~next ~cycle:650 ~addr:128 ~write:false in
  Alcotest.(check bool) (Printf.sprintf "waits for in-flight fill (%d)" t) true (t > 1000)

let test_tagged_hit_extends_stream () =
  let c = prefetching ~depth:2 () in
  let next = flat_next 10 in
  ignore (Cache.access c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access c ~next ~cycle:100 ~addr:64 ~write:false);
  (* consuming prefetched line 128 must pull in line 128+2*64 = 256 *)
  ignore (Cache.access c ~next ~cycle:200 ~addr:128 ~write:false);
  Alcotest.(check bool) "stream extended" true (Cache.probe c ~addr:256)

let test_unprefetchable_access_does_not_train () =
  let c = prefetching () in
  let next = flat_next 10 in
  ignore (Cache.access ~prefetchable:false c ~next ~cycle:0 ~addr:0 ~write:false);
  ignore (Cache.access ~prefetchable:false c ~next ~cycle:100 ~addr:64 ~write:false);
  ignore (Cache.access ~prefetchable:false c ~next ~cycle:200 ~addr:128 ~write:false);
  Alcotest.(check int) "ifetch-style accesses never prefetch" 0 (Cache.stats c).Cache.prefetches

let prefetch_suite =
  [
    Alcotest.test_case "sequential stream prefetches" `Quick test_sequential_stream_prefetches;
    Alcotest.test_case "random misses never prefetch" `Quick test_random_misses_never_prefetch;
    Alcotest.test_case "prefetched hit waits for fill" `Quick test_prefetched_hit_waits_for_fill;
    Alcotest.test_case "tagged hit extends stream" `Quick test_tagged_hit_extends_stream;
    Alcotest.test_case "non-prefetchable access" `Quick test_unprefetchable_access_does_not_train;
  ]

let suite = suite @ prefetch_suite
