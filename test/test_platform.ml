(* Tests for SoC assembly, the platform catalog, and multicore runs. *)

module I = Isa.Insn

let alu_stream n = Seq.init n (fun i -> I.make ~dst:(5 + (i mod 8)) ~pc:(i mod 64 * 4) I.Int_alu)

let load_stream ~stride n =
  Seq.init n (fun i ->
      I.make ~dst:5 ~mem:{ I.addr = 0x100000 + (i * stride); size = 8 } ~pc:0 I.Load)

let test_catalog_complete () =
  Alcotest.(check int) "11 platforms" 11 (List.length Platform.Catalog.all);
  List.iter
    (fun (c : Platform.Config.t) ->
      Alcotest.(check bool) (c.name ^ " has cores") true (c.cores > 0))
    Platform.Catalog.all

let test_catalog_find () =
  let c = Platform.Catalog.find "milkv-sim" in
  Alcotest.(check bool) "has llc" true (c.Platform.Config.llc <> None);
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Platform.Catalog.find "nope"))

let test_table5_invariants () =
  (* The catalog must encode the paper's Table 5 relationships. *)
  let open Platform in
  let bpi_sim = Catalog.banana_pi_sim and bpi_hw = Catalog.banana_pi_hw in
  let mkv_sim = Catalog.milkv_sim and mkv_hw = Catalog.milkv_hw in
  Alcotest.(check int) "bpi L1 32KiB both" (Cache.size_bytes bpi_sim.Config.l1d)
    (Cache.size_bytes bpi_hw.Config.l1d);
  Alcotest.(check int) "bpi L2 512KiB" (512 * 1024) (Cache.size_bytes bpi_sim.Config.l2);
  Alcotest.(check int) "milkv L1 64KiB" (64 * 1024) (Cache.size_bytes mkv_sim.Config.l1d);
  Alcotest.(check int) "milkv L2 1MiB" (1024 * 1024) (Cache.size_bytes mkv_sim.Config.l2);
  (match (mkv_sim.Config.llc, mkv_hw.Config.llc) with
  | Some a, Some b ->
    Alcotest.(check int) "LLC 64MiB sim" (64 * 1024 * 1024) (Cache.size_bytes a);
    Alcotest.(check int) "LLC 64MiB hw" (64 * 1024 * 1024) (Cache.size_bytes b);
    Alcotest.(check bool) "sim LLC is SRAM-like" true (a.Cache.hit_latency < b.Cache.hit_latency)
  | _ -> Alcotest.fail "milkv platforms need LLCs");
  Alcotest.(check bool) "fast model doubles clock" true
    (Config.freq_hz Catalog.fast_banana_pi_sim = 2.0 *. Config.freq_hz Catalog.banana_pi_sim);
  (* DRAM bandwidth ordering: DDR4 x4 > LPDDR4 > DDR3 x1. *)
  Alcotest.(check bool) "ddr4 fastest" true
    (Dram.peak_bandwidth_gbs mkv_hw.Config.dram > Dram.peak_bandwidth_gbs bpi_hw.Config.dram);
  Alcotest.(check bool) "ddr3 x1 slowest" true
    (Dram.peak_bandwidth_gbs bpi_sim.Config.dram < Dram.peak_bandwidth_gbs bpi_hw.Config.dram)

let test_run_stream_basic () =
  let soc = Platform.Soc.create Platform.Catalog.rocket1 in
  let r = Platform.Soc.run_trace soc (Trace.compile (alu_stream 1000)) in
  Alcotest.(check int) "all retired" 1000 r.Platform.Soc.instructions;
  Alcotest.(check bool) "took cycles" true (r.Platform.Soc.cycles >= 1000);
  Alcotest.(check bool) "seconds consistent" true
    (Float.abs (r.Platform.Soc.seconds -. (float_of_int r.Platform.Soc.cycles /. 1.6e9)) < 1e-12)

let test_determinism () =
  let run () =
    let soc = Platform.Soc.create Platform.Catalog.banana_pi_sim in
    (Platform.Soc.run_trace soc (Trace.compile (load_stream ~stride:64 5000))).Platform.Soc.cycles
  in
  Alcotest.(check int) "bit-identical reruns" (run ()) (run ())

let test_memory_hierarchy_effects () =
  (* Streaming loads over a footprint that fits L1 vs one that spills to
     DRAM: the DRAM-bound run must be much slower. *)
  let time stride n =
    let soc = Platform.Soc.create Platform.Catalog.rocket1 in
    let r = Platform.Soc.run_trace soc (Trace.compile (load_stream ~stride n)) in
    r.Platform.Soc.cycles
  in
  let l1_resident = time 0 20_000 in
  let dram_bound = time 4096 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "dram (%d) >> l1 (%d)" dram_bound l1_resident)
    true
    (dram_bound > 5 * l1_resident)

let test_llc_absorbs_l2_misses () =
  (* A working set beyond L2 but within the 64 MiB LLC: milkv-sim (SRAM
     LLC) should beat a hypothetical no-LLC variant. *)
  let no_llc = { Platform.Catalog.milkv_sim with Platform.Config.llc = None; name = "milkv-nollc" } in
  (* Cycle repeatedly over a 16 MiB footprint: misses L2 (1 MiB), fits the
     64 MiB LLC, so later passes hit the LLC when present. *)
  let wrap = 16 * 1024 * 1024 in
  let stream =
    Seq.init 30_000 (fun i ->
        I.make ~dst:5 ~mem:{ I.addr = 0x100000 + (i * 4096 mod wrap); size = 8 } ~pc:0 I.Load)
  in
  let time cfg =
    let soc = Platform.Soc.create cfg in
    (Platform.Soc.run_trace soc (Trace.compile stream)).Platform.Soc.cycles
  in
  Alcotest.(check bool) "LLC helps" true (time Platform.Catalog.milkv_sim < time no_llc)

let test_multicore_contention () =
  (* Four ranks each streaming from DRAM contend; one rank alone must be
     faster per-rank. *)
  let program ranks =
    Array.init ranks (fun r ->
        [
          Smpi.Compute
            (Seq.init 8000 (fun i ->
                 I.make ~dst:5
                   ~mem:{ I.addr = Workloads.Workload.data_base ~rank:r + (i * 4096); size = 8 }
                   ~pc:0 I.Load));
        ])
  in
  let run ranks =
    let soc = Platform.Soc.create Platform.Catalog.rocket1 in
    (Platform.Soc.run_ranks soc (program ranks)).Platform.Soc.cycles
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check bool) (Printf.sprintf "4 ranks (%d) slower than 1 (%d)" four one) true (four > one)

let test_too_many_ranks_rejected () =
  let soc = Platform.Soc.create Platform.Catalog.rocket1 in
  let program = Array.init 5 (fun _ -> [ Smpi.Compute (alu_stream 10) ]) in
  match Platform.Soc.run_ranks soc program with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of 5 ranks on 4 cores"

let test_run_ranks_collects_comm () =
  let program =
    Array.init 2 (fun _ -> [ Smpi.Compute (alu_stream 100); Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ])
  in
  let soc = Platform.Soc.create Platform.Catalog.rocket1 in
  let r = Platform.Soc.run_ranks soc program in
  match r.Platform.Soc.comm with
  | Some c -> Alcotest.(check int) "collective seen" 1 c.Smpi.collectives
  | None -> Alcotest.fail "expected comm stats"

let test_with_cores_and_freq () =
  let c8 = Platform.Config.with_cores Platform.Catalog.rocket1 8 in
  Alcotest.(check int) "8 cores" 8 c8.Platform.Config.cores;
  let fast = Platform.Config.with_freq Platform.Catalog.rocket1 3.2e9 in
  Alcotest.(check (float 1.0)) "3.2 GHz" 3.2e9 (Platform.Config.freq_hz fast)

let test_frequency_scaling_effect () =
  (* Compute-bound work: doubling the clock halves the time; memory-bound
     work gains far less (the paper's Fast model DRAM observation). *)
  let time cfg stream =
    let soc = Platform.Soc.create cfg in
    (Platform.Soc.run_trace soc (Trace.compile stream)).Platform.Soc.seconds
  in
  let base = Platform.Catalog.banana_pi_sim and fast = Platform.Catalog.fast_banana_pi_sim in
  let compute_gain = time base (alu_stream 20_000) /. time fast (alu_stream 20_000) in
  let mem_gain = time base (load_stream ~stride:4096 8_000) /. time fast (load_stream ~stride:4096 8_000) in
  Alcotest.(check bool) (Printf.sprintf "compute ~2x (%.2f)" compute_gain) true (compute_gain > 1.8);
  Alcotest.(check bool)
    (Printf.sprintf "memory < compute gain (%.2f < %.2f)" mem_gain compute_gain)
    true (mem_gain < compute_gain)

(* Counter conservation on random configurations: a catalog entry with
   power-of-two cache, TLB and DRAM-channel geometry redrawn.  A random
   evaluated kernel's setup and measured streams are cut into
   [Trace.chunk_len] pieces, each replayed through [Runner.replay], so
   core 0's clock can be read between chunks.  Prefetch fills are counted
   in [prefetches] only, never as accesses, so each level's demand
   identity holds exactly. *)
let gen_case =
  let open QCheck.Gen in
  let pow2 lo hi = map (fun k -> 1 lsl k) (int_range lo hi) in
  let cache (c : Cache.config) ~sets ~ways =
    map2 (fun sets ways -> { c with Cache.sets; ways }) sets ways
  in
  let tlb (c : Platform.Tlb.config) =
    map2
      (fun l1_entries l2_entries -> { c with Platform.Tlb.l1_entries; l2_entries })
      (pow2 2 6)
      (oneof [ return 0; pow2 6 10 ])
  in
  oneofl Platform.Catalog.all >>= fun (base : Platform.Config.t) ->
  cache base.l1i ~sets:(pow2 3 7) ~ways:(pow2 0 3) >>= fun l1i ->
  cache base.l1d ~sets:(pow2 3 7) ~ways:(pow2 0 3) >>= fun l1d ->
  cache base.l2 ~sets:(pow2 5 10) ~ways:(pow2 0 4) >>= fun l2 ->
  opt (cache (Option.value base.llc ~default:base.l2) ~sets:(pow2 6 12) ~ways:(pow2 0 4))
  >>= fun llc ->
  tlb base.dtlb >>= fun dtlb ->
  tlb base.itlb >>= fun itlb ->
  pow2 0 2 >>= fun channels ->
  oneofl Workloads.Microbench.evaluated >|= fun kernel ->
  let dram = { base.dram with Dram.channels } in
  ({ base with cores = 1; l1i; l1d; l2; llc; dtlb; itlb; dram }, kernel)

let print_case ((c : Platform.Config.t), (k : Workloads.Workload.kernel)) =
  let cache (x : Cache.config) = Printf.sprintf "%dx%d" x.Cache.sets x.Cache.ways in
  let tlb (x : Platform.Tlb.config) = Printf.sprintf "%d+%d" x.Platform.Tlb.l1_entries x.l2_entries in
  Printf.sprintf "%s on %s: l1i %s l1d %s l2 %s llc %s dtlb %s itlb %s dram x%d" k.name c.name
    (cache c.l1i) (cache c.l1d) (cache c.l2)
    (Option.fold ~none:"-" ~some:cache c.llc)
    (tlb c.dtlb) (tlb c.itlb) c.dram.Dram.channels

let prop_counters_conserved =
  QCheck.Test.make ~name:"counters conserved on random configs" ~count:20
    (QCheck.make ~print:print_case gen_case)
    (fun ((cfg : Platform.Config.t), (kernel : Workloads.Workload.kernel)) ->
      let scale = 0.05 in
      let stream =
        Seq.append
          (match kernel.setup with None -> Seq.empty | Some s -> s ~scale)
          (kernel.stream ~scale)
      in
      let next = Seq.to_dispenser stream in
      let soc = Platform.Soc.create cfg in
      let now = (Platform.Soc.core_iface soc 0).Smpi.now in
      let fed = ref 0 and clock = ref (now ()) and last = ref Trace.chunk_len in
      while !last = Trace.chunk_len do
        let tr = Trace.compile ~limit:Trace.chunk_len (Seq.of_dispenser next) in
        Simbridge.Runner.replay soc tr;
        last := Trace.length tr;
        fed := !fed + !last;
        let t = now () in
        if t < !clock then QCheck.Test.fail_reportf "clock went back: %d after %d" t !clock;
        clock := t
      done;
      let c = Platform.Soc.counters soc in
      Platform.Soc.release soc;
      let get k = List.assoc k c in
      let eq what a b = if a <> b then QCheck.Test.fail_reportf "%s: %d <> %d" what a b in
      let le what a b = if a > b then QCheck.Test.fail_reportf "%s: %d > %d" what a b in
      List.iter
        (fun lvl ->
          let k f = Printf.sprintf "cache.%s.%s" lvl f in
          eq (k "hits + misses") (get (k "hits") + get (k "misses")) (get (k "accesses")))
        ("l1i" :: "l1d" :: "l2" :: (if Option.is_some cfg.llc then [ "llc" ] else []));
      List.iter
        (fun t ->
          let k f = Printf.sprintf "tlb.%s.%s" t f in
          le (k "walks") (get (k "walks")) (get (k "l1_misses"));
          le (k "l1_misses") (get (k "l1_misses")) (get (k "accesses")))
        [ "dtlb"; "itlb" ];
      let req = get "dram.requests" in
      eq "dram reads + writes" (get "dram.reads" + get "dram.writes") req;
      eq "dram row outcomes"
        (get "dram.row_hits" + get "dram.row_empty" + get "dram.row_conflicts")
        req;
      eq "core.instructions" (get "core.instructions") !fed;
      eq "stream length" !fed (Seq.length stream);
      true)

let suite =
  [
    Alcotest.test_case "catalog complete" `Quick test_catalog_complete;
    Alcotest.test_case "catalog find" `Quick test_catalog_find;
    Alcotest.test_case "table 5 invariants" `Quick test_table5_invariants;
    Alcotest.test_case "run_stream basics" `Quick test_run_stream_basic;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "memory hierarchy effects" `Quick test_memory_hierarchy_effects;
    Alcotest.test_case "LLC absorbs L2 misses" `Quick test_llc_absorbs_l2_misses;
    Alcotest.test_case "multicore contention" `Quick test_multicore_contention;
    Alcotest.test_case "rank bound enforced" `Quick test_too_many_ranks_rejected;
    Alcotest.test_case "comm stats collected" `Quick test_run_ranks_collects_comm;
    Alcotest.test_case "config transforms" `Quick test_with_cores_and_freq;
    Alcotest.test_case "frequency scaling" `Quick test_frequency_scaling_effect;
    QCheck_alcotest.to_alcotest prop_counters_conserved;
  ]
