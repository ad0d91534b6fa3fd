(** The platform catalog: every configuration of Tables 4 and 5.

    Simulation models (what the paper runs inside FireSim):
    - {!rocket1}, {!rocket2}: Rocket-based, 1 vs 4 L2 banks;
    - {!banana_pi_sim}: Rocket2 plus the 128-bit system bus — the
      "Banana Pi Sim Model";
    - {!fast_banana_pi_sim}: the same at 3.2 GHz (clock doubled to mimic
      the K1's dual issue);
    - {!boom_small}, {!boom_medium}, {!boom_large}: stock BOOM
      configurations over the FireSim DDR3 memory model;
    - {!milkv_sim}: Large BOOM with MILK-V cache capacities (64 KiB L1,
      1 MiB L2, 4 x 16 MiB SRAM-like LLC, 4 DDR3 channels).

    Silicon reference models (stand-ins for the physical boards):
    - {!banana_pi_hw}: SpacemiT K1 cluster — dual-issue 8-stage in-order
      cores, LPDDR4-2666;
    - {!milkv_hw}: SOPHON SG2042 cluster — wide out-of-order cores,
      1 MiB L2, 64 MiB LLC, DDR4-3200 x4.

    All platforms are built with 4 cores (one cluster), matching the
    paper's experiments; use {!Config.with_cores} to change. *)

val rocket1 : Config.t

val rocket2 : Config.t

val cva6 : Config.t
(** CVA6 (Ariane), the third application-class open core the paper's
    related work evaluates on FireSim: 6-stage single-issue, 1 GHz. *)

val banana_pi_sim : Config.t
val fast_banana_pi_sim : Config.t
val boom_small : Config.t
val boom_medium : Config.t
val boom_large : Config.t
val milkv_sim : Config.t
val banana_pi_hw : Config.t
val milkv_hw : Config.t

val all : Config.t list
(** Every catalog platform, in the order above. *)

val find : string -> Config.t
(** Look up by [Config.name]; raises [Not_found]. *)
