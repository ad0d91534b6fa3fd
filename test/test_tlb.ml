(* Tests for the TLB timing model. *)

let small ?(l1 = 4) ?(l2 = 0) () =
  Platform.Tlb.create (Platform.Tlb.config ~name:"t" ~l1_entries:l1 ~l2_entries:l2 ())

let test_l1_hit_free () =
  let t = small () in
  ignore (Platform.Tlb.translate t ~addr:0x1000);
  Alcotest.(check int) "second access same page free" 0 (Platform.Tlb.translate t ~addr:0x1FFF)

let test_same_page_boundary () =
  let t = small () in
  ignore (Platform.Tlb.translate t ~addr:0x1000);
  Alcotest.(check bool) "next page misses" true (Platform.Tlb.translate t ~addr:0x2000 > 0)

let test_walk_cost_no_l2 () =
  let t = small () in
  Alcotest.(check int) "cold access walks" 40 (Platform.Tlb.translate t ~addr:0x5000)

let test_l2_cheaper_than_walk () =
  let t = small ~l1:2 ~l2:64 () in
  (* touch page 0, then evict it from L1 by touching 2 more pages; the
     re-access hits the L2 TLB *)
  ignore (Platform.Tlb.translate t ~addr:0x0);
  ignore (Platform.Tlb.translate t ~addr:0x1000);
  ignore (Platform.Tlb.translate t ~addr:0x2000);
  Alcotest.(check int) "L2 TLB hit" 8 (Platform.Tlb.translate t ~addr:0x0)

let test_lru_in_l1 () =
  let t = small ~l1:2 () in
  ignore (Platform.Tlb.translate t ~addr:0x0);
  ignore (Platform.Tlb.translate t ~addr:0x1000);
  (* refresh page 0, then add a third page: page 1 is the LRU victim *)
  ignore (Platform.Tlb.translate t ~addr:0x0);
  ignore (Platform.Tlb.translate t ~addr:0x2000);
  Alcotest.(check int) "page 0 still resident" 0 (Platform.Tlb.translate t ~addr:0x10)

let test_stats () =
  let t = small () in
  ignore (Platform.Tlb.translate t ~addr:0x0);
  ignore (Platform.Tlb.translate t ~addr:0x10);
  ignore (Platform.Tlb.translate t ~addr:0x1000);
  let s = Platform.Tlb.stats t in
  Alcotest.(check int) "3 accesses" 3 s.Platform.Tlb.accesses;
  Alcotest.(check int) "2 misses" 2 s.Platform.Tlb.l1_misses;
  Alcotest.(check int) "2 walks" 2 s.Platform.Tlb.walks

let test_reach () =
  Alcotest.(check int) "32 x 4K = 128K" (128 * 1024)
    (Platform.Tlb.reach_bytes Platform.Tlb.firesim_rocket)

let test_presets_match_table5 () =
  Alcotest.(check int) "rocket L1 32" 32 Platform.Tlb.firesim_rocket.Platform.Tlb.l1_entries;
  Alcotest.(check int) "rocket no L2" 0 Platform.Tlb.firesim_rocket.Platform.Tlb.l2_entries;
  Alcotest.(check int) "boom L2 1024" 1024 Platform.Tlb.firesim_boom.Platform.Tlb.l2_entries

let test_soc_integration () =
  (* A pointer chase over many pages must report walks through the SoC. *)
  let stream =
    Seq.init 2000 (fun i ->
        Isa.Insn.make ~dst:5
          ~mem:{ Isa.Insn.addr = 0x1000_0000 + (i * 8192); size = 8 }
          ~pc:0 Isa.Insn.Load)
  in
  let soc = Platform.Soc.create Platform.Catalog.banana_pi_sim in
  let r = Platform.Soc.run_trace soc (Trace.compile stream) in
  Alcotest.(check bool)
    (Printf.sprintf "walks recorded (%d)" r.Platform.Soc.tlb_walks)
    true
    (r.Platform.Soc.tlb_walks > 1000)

let test_tlb_pressure_costs_cycles () =
  let one_page =
    Seq.init 4000 (fun i ->
        Isa.Insn.make ~dst:5 ~mem:{ Isa.Insn.addr = 0x1000_0000 + (i mod 64 * 8); size = 8 } ~pc:0
          Isa.Insn.Load)
  in
  let many_pages =
    Seq.init 4000 (fun i ->
        Isa.Insn.make ~dst:5
          ~mem:{ Isa.Insn.addr = 0x1000_0000 + (i mod 512 * 8192); size = 8 }
          ~pc:0 Isa.Insn.Load)
  in
  let time stream =
    let soc = Platform.Soc.create Platform.Catalog.banana_pi_sim in
    (Platform.Soc.run_trace soc (Trace.compile stream)).Platform.Soc.cycles
  in
  Alcotest.(check bool) "page sweep slower" true (time many_pages > time one_page)

let prop_translate_nonnegative =
  QCheck.Test.make ~name:"tlb penalty is 0, l2_latency, or walk_latency" ~count:200
    QCheck.(int_range 0 0xFFFFFFF)
    (fun addr ->
      let t = small ~l1:4 ~l2:16 () in
      let p = Platform.Tlb.translate t ~addr in
      p = 0 || p = 8 || p = 40)

let suite =
  [
    Alcotest.test_case "L1 hit free" `Quick test_l1_hit_free;
    Alcotest.test_case "page boundary" `Quick test_same_page_boundary;
    Alcotest.test_case "walk cost" `Quick test_walk_cost_no_l2;
    Alcotest.test_case "L2 TLB cheaper" `Quick test_l2_cheaper_than_walk;
    Alcotest.test_case "L1 LRU" `Quick test_lru_in_l1;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "reach" `Quick test_reach;
    Alcotest.test_case "Table 5 presets" `Quick test_presets_match_table5;
    Alcotest.test_case "SoC integration" `Quick test_soc_integration;
    Alcotest.test_case "TLB pressure costs" `Quick test_tlb_pressure_costs_cycles;
    QCheck_alcotest.to_alcotest prop_translate_nonnegative;
  ]
