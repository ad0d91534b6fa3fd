(* Differential tests: the TLB, cache, DRAM and in-flight queue models
   against the linear-scan reference models in test/oracle (Oracle.Scan),
   driven by the same random address and time streams over random
   geometries.  Every latency, every downstream call and every counter
   must agree.  A case is a geometry plus a stream seed, so a failure
   prints both. *)

module S = Oracle.Scan

let pow2 lo hi = QCheck.Gen.map (fun k -> 1 lsl k) (QCheck.Gen.int_range lo hi)

(* Addresses from a pool of [regions] regions of [span] bytes each, mixed
   with sequential runs, so that both hits and misses (and evictions,
   stream prefetches, row hits and conflicts) happen. *)
let address_stream rng ~n ~regions ~span =
  let next_seq = ref (Random.State.int rng (1 lsl 20) * 64) in
  List.init n (fun _ ->
      match Random.State.int rng 4 with
      | 0 ->
        next_seq := !next_seq + 8 + Random.State.int rng 64;
        !next_seq
      | _ -> (Random.State.int rng regions * (span + 4096 * 977)) + Random.State.int rng span)

(* ------------------------------------------------------ in-flight queue *)

let prop_ring =
  QCheck.Test.make ~name:"ring = argmin scan (sizes 1-64)" ~count:300
    QCheck.(pair (make ~print:string_of_int (Gen.int_range 1 64)) int)
    (fun (n, seed) ->
      (* The multiset is compared through its minimum, the only value the
         models read, after every replacement. *)
      let rng = Random.State.make [| seed |] in
      let ring = Util.Ring.create n and slots = S.Slots.create n in
      List.for_all
        (fun _ ->
          (* Usually a completion past every one in flight, sometimes not. *)
          let v =
            if Random.State.int rng 4 = 0 then Random.State.int rng 1000
            else Util.Ring.min ring + Random.State.int rng 200
          in
          Util.Ring.replace_min ring v;
          S.Slots.replace_min slots v;
          Util.Ring.min ring = S.Slots.min slots)
        (List.init 400 Fun.id))

(* ------------------------------------------------------------------ TLB *)

let tlb_case =
  QCheck.Gen.(
    quad
      (oneof [ return 1; return 48; return 1024; int_range 1 64 ])
      (oneofl [ 0; 1; 16; 1024 ])
      (pow2 8 13) int)

let prop_tlb =
  QCheck.Test.make ~name:"tlb = stamp scan (L1 1, 48, 1024, 1-64)" ~count:120
    (QCheck.make ~print:QCheck.Print.(quad int int int int) tlb_case)
    (fun (l1, l2, page_bytes, seed) ->
      let cfg =
        Platform.Tlb.config ~page_bytes ~name:"d" ~l1_entries:l1 ~l2_entries:l2 ()
      in
      let rng = Random.State.make [| seed |] in
      let addrs =
        address_stream rng ~n:3000 ~regions:(1 + Random.State.int rng (3 * l1)) ~span:(2 * page_bytes)
      in
      let t = Platform.Tlb.create cfg in
      let run t r =
        List.for_all
          (fun addr -> Platform.Tlb.translate t ~addr = S.Tlb.translate r ~addr)
          addrs
        && Platform.Tlb.stats t = S.Tlb.stats r
      in
      let first = run t (S.Tlb.create cfg) in
      (* [reset] is the state [create] returns. *)
      Platform.Tlb.reset t;
      let again = run t (S.Tlb.create cfg) in
      Platform.Tlb.release t;
      first && again)

(* ---------------------------------------------------------------- cache *)

let cache_case =
  QCheck.Gen.(
    let* sets = pow2 0 6 and* ways = int_range 1 64 and* mshrs = int_range 1 32 in
    let* banks = pow2 0 3 and* line = pow2 4 7 and* hit_latency = int_range 1 20 in
    let* prefetch_next = oneofl [ 0; 0; 1; 2; 4 ] and* write_back = bool and* seed = int in
    return
      ( Cache.config ~hit_latency ~mshrs ~banks ~write_back ~line ~prefetch_next ~name:"d" ~sets
          ~ways (),
        seed ))

let print_cache (c, seed) =
  Printf.sprintf "sets %d ways %d line %d mshrs %d banks %d hit %d prefetch %d wb %b seed %d"
    c.Cache.sets c.ways c.line c.mshrs c.banks c.hit_latency c.prefetch_next c.write_back seed

let prop_cache =
  QCheck.Test.make ~name:"cache = way/victim/MSHR scans (ways 1-64, MSHRs 1-32)" ~count:150
    (QCheck.make ~print:print_cache cache_case)
    (fun (cfg, seed) ->
      let rng = Random.State.make [| seed |] in
      let capacity = Cache.size_bytes cfg in
      let addrs =
        address_stream rng ~n:2000 ~regions:(1 + Random.State.int rng 8) ~span:(capacity / 2 + cfg.line)
      in
      let ops =
        List.map
          (fun addr ->
            (addr, Random.State.int rng 8 - 2, Random.State.bool rng, Random.State.int rng 5 > 0))
          addrs
      in
      let replay access probe =
        let calls = ref [] in
        let next ~cycle ~addr ~write =
          calls := (cycle, addr, write) :: !calls;
          cycle + 25 + ((addr lsr 6) land 31)
        in
        let cycle = ref 0 in
        let lat =
          List.map
            (fun (addr, dt, write, prefetchable) ->
              cycle := max 0 (!cycle + dt);
              access ~prefetchable ~next ~cycle:!cycle ~addr ~write)
            ops
        in
        (lat, List.rev !calls, List.map (fun addr -> probe ~addr) addrs)
      in
      (* The cache under test has run the stream once and been reset: its
         ways keep stale tags and stamps, which must read as invalid. *)
      let c = Cache.create cfg in
      ignore (replay (fun ~prefetchable -> Cache.access ~prefetchable c) (Cache.probe c));
      Cache.reset c;
      let r = S.Cache.create cfg in
      let got = replay (fun ~prefetchable -> Cache.access ~prefetchable c) (Cache.probe c) in
      let want = replay (fun ~prefetchable -> S.Cache.access ~prefetchable r) (S.Cache.probe r) in
      let same = got = want && Cache.stats c = S.Cache.stats r in
      Cache.release c;
      same)

(* ----------------------------------------------------------------- DRAM *)

let dram_case =
  QCheck.Gen.(
    let* channels = pow2 0 3 and* ranks = pow2 0 2 and* banks_per_rank = pow2 1 4 in
    let* row_bytes = pow2 10 13 and* line_bytes = pow2 5 7 and* queue_depth = int_range 1 64 in
    let* t_cas_ns = float_range 5. 30. and* t_rcd_ns = float_range 5. 30. in
    let* t_rp_ns = float_range 5. 30. and* ctrl_latency_ns = float_range 0. 300. in
    let* data_rate_mts = float_range 1000. 3200. and* bus_bytes = oneofl [ 4; 8 ] in
    let* seed = int in
    return
      ( {
          Dram.name = "d";
          data_rate_mts;
          bus_bytes;
          channels;
          ranks;
          banks_per_rank;
          row_bytes;
          timing = { t_cas_ns; t_rcd_ns; t_rp_ns };
          ctrl_latency_ns;
          queue_depth;
          line_bytes;
        },
        seed ))

let print_dram ((c : Dram.config), seed) =
  Printf.sprintf "channels %d ranks %d banks %d row %d line %d depth %d ctrl %g seed %d" c.channels
    c.ranks c.banks_per_rank c.row_bytes c.line_bytes c.queue_depth c.ctrl_latency_ns seed

let prop_dram =
  QCheck.Test.make ~name:"dram = queue scan and division decode (depths 1-64)" ~count:150
    (QCheck.make ~print:print_dram dram_case)
    (fun (cfg, seed) ->
      let rng = Random.State.make [| seed |] in
      let addrs = address_stream rng ~n:2000 ~regions:(1 + Random.State.int rng 16) ~span:65536 in
      let d = Dram.create cfg and r = S.Dram.create cfg in
      let time = ref 0.0 in
      List.for_all
        (fun addr ->
          (* Bursts at one time, gaps that drain the queue, and now and
             then an earlier time (a write-back issued at its fill). *)
          (match Random.State.int rng 6 with
          | 0 | 1 -> time := !time +. Random.State.float rng 400.0
          | 2 -> time := Float.max 0.0 (!time -. Random.State.float rng 200.0)
          | _ -> ());
          let write = Random.State.int rng 4 = 0 in
          Float.equal
            (Dram.request d ~time_ns:!time ~addr ~write)
            (S.Dram.request r ~time_ns:!time ~addr ~write))
        addrs
      && Dram.stats d = S.Dram.stats r
      && Dram.channel_stats d = S.Dram.channel_stats r)

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_ring; prop_tlb; prop_cache; prop_dram ]
