(* --- Cache configurations ----------------------------------------------- *)

(* Rocket "huge" tile: 32 KiB L1s (64 sets x 8 ways), as in Table 5. *)
let rocket_l1i = Cache.config ~name:"l1i" ~sets:64 ~ways:8 ~hit_latency:1 ~mshrs:1 ()
let rocket_l1d = Cache.config ~name:"l1d" ~sets:64 ~ways:8 ~hit_latency:2 ~mshrs:4 ()

let rocket_l2 ~banks =
  (* 512 KiB inclusive tile L2; deep MSHR pipelining acts as a 2-line
     stream prefetcher. *)
  Cache.config ~name:"l2" ~sets:1024 ~ways:8 ~hit_latency:18 ~mshrs:8 ~banks ~prefetch_next:16 ()

(* BOOM small/medium: 64 sets x 4 ways = 16 KiB L1D (Table 4). *)
let boom_l1_small = Cache.config ~name:"l1d" ~sets:64 ~ways:4 ~hit_latency:3 ~mshrs:4 ()

(* BOOM large: 64 sets x 8 ways = 32 KiB. *)
let boom_l1_large = Cache.config ~name:"l1d" ~sets:64 ~ways:8 ~hit_latency:3 ~mshrs:6 ()

(* MILK-V tuned: 128 sets x 8 ways = 64 KiB. *)
let milkv_l1 = Cache.config ~name:"l1d" ~sets:128 ~ways:8 ~hit_latency:3 ~mshrs:8 ()

let boom_l2 =
  Cache.config ~name:"l2" ~sets:1024 ~ways:8 ~hit_latency:20 ~mshrs:12 ~banks:4 ~prefetch_next:16 ()

(* MILK-V sim: 1 MiB cluster L2 (2048 sets x 8 ways x 64 B). *)
let milkv_l2 =
  Cache.config ~name:"l2" ~sets:2048 ~ways:8 ~hit_latency:20 ~mshrs:12 ~banks:4 ~prefetch_next:16 ()

(* FireSim's simplified LLC: SRAM-like, no tag/data latency modeling
   (hit_latency 1).  4 x 16 MiB, one per memory channel -> 4 banks. *)
let milkv_sim_llc =
  Cache.config ~name:"llc" ~sets:16384 ~ways:64 ~hit_latency:1 ~mshrs:16 ~banks:4 ()

(* The real SG2042 LLC: same capacity but a real cache with real latency. *)
let milkv_hw_llc =
  Cache.config ~name:"llc" ~sets:65536 ~ways:16 ~hit_latency:38 ~mshrs:32 ~banks:4 ()

(* --- Buses --------------------------------------------------------------- *)

let bus64 = Interconnect.Bus.config ~name:"sbus-64" ~width_bits:64 ()
let bus128 = Interconnect.Bus.config ~name:"sbus-128" ~width_bits:128 ()

(* --- Platforms ----------------------------------------------------------- *)

let mk ~name ~description ~core ~l1i ~l1d ~l2 ?llc ~bus ~dram ?(tlb = Tlb.firesim_rocket) () =
  {
    Config.name;
    description;
    cores = 4;
    core;
    l1i;
    l1d;
    l2;
    llc;
    bus;
    dram;
    dtlb = tlb;
    itlb = tlb;
    mpi_latency_us = 0.8;
  }

let rocket1 =
  mk ~name:"rocket1" ~description:"Huge Rocket tile, 1 L2 bank, 64-bit system bus"
    ~core:(Config.Inorder (Uarch.Inorder.rocket ~name:"rocket" ~freq_hz:1.6e9 ()))
    ~l1i:rocket_l1i ~l1d:rocket_l1d ~l2:(rocket_l2 ~banks:1) ~bus:bus64
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:1)
    ()

let rocket2 =
  mk ~name:"rocket2" ~description:"Rocket1 with 4 L2 banks"
    ~core:(Config.Inorder (Uarch.Inorder.rocket ~name:"rocket" ~freq_hz:1.6e9 ()))
    ~l1i:rocket_l1i ~l1d:rocket_l1d ~l2:(rocket_l2 ~banks:4) ~bus:bus64
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:1)
    ()

let banana_pi_sim =
  mk ~name:"banana-pi-sim" ~description:"Banana Pi Sim Model: Rocket2 + 128-bit system bus"
    ~core:(Config.Inorder (Uarch.Inorder.rocket ~name:"rocket" ~freq_hz:1.6e9 ()))
    ~l1i:rocket_l1i ~l1d:rocket_l1d ~l2:(rocket_l2 ~banks:4) ~bus:bus128
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:1)
    ()

let fast_banana_pi_sim =
  let p = Config.with_freq banana_pi_sim 3.2e9 in
  {
    p with
    Config.name = "fast-banana-pi-sim";
    description = "Banana Pi Sim Model at 3.2 GHz (clock doubled to mimic dual issue)";
  }

let boom ~name ~description ~core ~l1 =
  mk ~name ~description ~core:(Config.Ooo core) ~l1i:l1 ~l1d:l1 ~l2:boom_l2 ~bus:bus128
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:1)
    ~tlb:Tlb.firesim_boom ()

(* CVA6 (Ariane): the third application-class open core the related work
   evaluates — 6-stage, single-issue, smaller frontend than Rocket's. *)
let cva6 =
  mk ~name:"cva6" ~description:"CVA6 (Ariane) tile: 6-stage single-issue in-order"
    ~core:
      (Config.Inorder
         {
           (Uarch.Inorder.rocket ~name:"cva6" ~freq_hz:1.0e9 ()) with
           Uarch.Inorder.pipeline_stages = 6;
           mispredict_penalty = 5;
           fetch_width = 2;
           store_buffer = 4;
           load_queue = 2;
           frontend = { Branch.Frontend.rocket_config with btb_entries = 16; ras_entries = 2 };
         })
    ~l1i:(Cache.config ~name:"l1i" ~sets:64 ~ways:4 ~hit_latency:1 ~mshrs:1 ())
    ~l1d:(Cache.config ~name:"l1d" ~sets:64 ~ways:8 ~hit_latency:3 ~mshrs:1 ())
    ~l2:(rocket_l2 ~banks:1) ~bus:bus64
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:1)
    ()

let boom_small =
  boom ~name:"boom-small" ~description:"Small BOOM (RoB 32, 1-wide decode)"
    ~core:(Uarch.Ooo.boom_small ()) ~l1:boom_l1_small

let boom_medium =
  boom ~name:"boom-medium" ~description:"Medium BOOM (RoB 64, 2-wide decode)"
    ~core:(Uarch.Ooo.boom_medium ()) ~l1:boom_l1_small

let boom_large =
  boom ~name:"boom-large" ~description:"Large BOOM (RoB 96, 3-wide decode)"
    ~core:(Uarch.Ooo.boom_large ()) ~l1:boom_l1_large

let milkv_sim =
  mk ~name:"milkv-sim"
    ~description:"MILK-V Sim Model: Large BOOM with 64 KiB L1, 1 MiB L2, 4x16 MiB LLC, 4 DDR3 channels"
    ~core:(Config.Ooo (Uarch.Ooo.boom_large ~name:"boom-large" ()))
    ~l1i:milkv_l1 ~l1d:milkv_l1 ~l2:milkv_l2 ~llc:milkv_sim_llc ~bus:bus128
    ~dram:(Dram.ddr3_2000_fr_fcfs ~channels:4)
    ~tlb:Tlb.firesim_boom ()

let banana_pi_hw =
  mk ~name:"banana-pi-hw"
    ~description:"Banana Pi BPI-F3 silicon reference: SpacemiT K1 cluster, dual-issue 8-stage, LPDDR4-2666"
    ~core:(Config.Inorder (Uarch.Inorder.k1 ()))
    ~l1i:(Cache.config ~name:"l1i" ~sets:64 ~ways:8 ~hit_latency:1 ~mshrs:2 ())
    ~l1d:(Cache.config ~name:"l1d" ~sets:64 ~ways:8 ~hit_latency:2 ~mshrs:6 ())
    ~l2:(Cache.config ~name:"l2" ~sets:1024 ~ways:8 ~hit_latency:24 ~mshrs:12 ~banks:4 ~prefetch_next:16 ())
    ~bus:bus128 ~dram:Dram.lpddr4_2666_dual32 ~tlb:Tlb.silicon ()

let milkv_hw =
  mk ~name:"milkv-hw"
    ~description:"MILK-V Pioneer silicon reference: SG2042 cluster (C920 cores), 1 MiB L2, 64 MiB LLC, DDR4-3200 x4"
    ~core:(Config.Ooo (Uarch.Ooo.sg2042 ()))
    ~l1i:(Cache.config ~name:"l1i" ~sets:128 ~ways:8 ~hit_latency:1 ~mshrs:4 ())
    ~l1d:(Cache.config ~name:"l1d" ~sets:128 ~ways:8 ~hit_latency:3 ~mshrs:12 ())
    ~l2:(Cache.config ~name:"l2" ~sets:2048 ~ways:8 ~hit_latency:16 ~mshrs:16 ~banks:4 ~prefetch_next:16 ())
    ~llc:milkv_hw_llc ~bus:bus128
    ~dram:(Dram.ddr4_3200 ~channels:4)
    ~tlb:Tlb.silicon ()

let all =
  [
    rocket1;
    rocket2;
    cva6;
    banana_pi_sim;
    fast_banana_pi_sim;
    boom_small;
    boom_medium;
    boom_large;
    milkv_sim;
    banana_pi_hw;
    milkv_hw;
  ]

let find name =
  match List.find_opt (fun (c : Config.t) -> c.Config.name = name) all with
  | Some c -> c
  | None -> raise Not_found

