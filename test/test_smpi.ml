(* Tests for the simulated MPI engine: matching, collectives, deadlock
   detection, chunked interleaving. *)

module I = Isa.Insn

let alu ~pc = I.make ~dst:5 ~src1:5 ~pc I.Int_alu

(* A trivial rank interface backed by a bare counter: each instruction
   costs one cycle. *)
let counter_iface () =
  let t = ref 0 in
  let rec feed_until s ~horizon =
    if !t >= horizon then Some s
    else
      match s () with
      | Seq.Nil -> None
      | Seq.Cons (_, tl) ->
        incr t;
        feed_until tl ~horizon
  in
  ( {
      Smpi.feed_until;
      now = (fun () -> !t);
      advance_to = (fun c -> if c > !t then t := c);
    },
    t )

let fabric ?(latency = 10) () =
  let bus_free = ref 0 in
  {
    Smpi.latency_cycles = latency;
    transfer =
      (fun ~src:_ ~dst:_ ~cycle ~bytes ->
        let start = max cycle !bus_free in
        let finish = start + (bytes / 8) in
        bus_free := finish;
        finish);
  }

let compute n = Smpi.Compute (Seq.init n (fun i -> alu ~pc:(i mod 64 * 4)))

let run ?quantum ranks program =
  let ifaces = Array.init ranks (fun _ -> fst (counter_iface ())) in
  let stats = Smpi.Engine.run ?quantum (fabric ()) ifaces program in
  (stats, ifaces)

let test_single_rank_compute () =
  let stats, ifaces = run 1 [| [ compute 100 ] |] in
  Alcotest.(check int) "100 cycles" 100 (ifaces.(0).Smpi.now ());
  Alcotest.(check int) "no messages" 0 stats.Smpi.messages

let test_send_recv () =
  let program =
    [|
      [ Smpi.Comm (Smpi.Send { dst = 1; bytes = 800; tag = 0 }) ];
      [ Smpi.Comm (Smpi.Recv { src = 0; bytes = 800; tag = 0 }) ];
    |]
  in
  let stats, ifaces = run 2 program in
  Alcotest.(check int) "1 message" 1 stats.Smpi.messages;
  Alcotest.(check int) "800 bytes" 800 stats.Smpi.bytes_moved;
  Alcotest.(check bool) "receiver later than sender" true
    (ifaces.(1).Smpi.now () >= ifaces.(0).Smpi.now ())

let test_recv_waits_for_compute () =
  (* Rank 1 receives immediately; rank 0 computes 1000 cycles first.  The
     receiver's completion must reflect the sender's late send. *)
  let program =
    [|
      [ compute 1000; Smpi.Comm (Smpi.Send { dst = 1; bytes = 8; tag = 0 }) ];
      [ Smpi.Comm (Smpi.Recv { src = 0; bytes = 8; tag = 0 }) ];
    |]
  in
  let _, ifaces = run 2 program in
  Alcotest.(check bool) "receiver blocked until sender computed" true (ifaces.(1).Smpi.now () > 1000)

let test_sendrecv_symmetric_no_deadlock () =
  let xchg peer tag = Smpi.Comm (Smpi.Sendrecv { peer; send_bytes = 80; recv_bytes = 80; tag }) in
  let program = [| [ compute 10; xchg 1 7 ]; [ compute 20; xchg 0 7 ] |] in
  let stats, _ = run 2 program in
  Alcotest.(check int) "two messages" 2 stats.Smpi.messages

let test_tag_matching () =
  (* Messages with different tags do not cross-match. *)
  let program =
    [|
      [
        Smpi.Comm (Smpi.Send { dst = 1; bytes = 8; tag = 1 });
        Smpi.Comm (Smpi.Send { dst = 1; bytes = 16; tag = 2 });
      ];
      [
        Smpi.Comm (Smpi.Recv { src = 0; bytes = 16; tag = 2 });
        Smpi.Comm (Smpi.Recv { src = 0; bytes = 8; tag = 1 });
      ];
    |]
  in
  let stats, _ = run 2 program in
  Alcotest.(check int) "both delivered" 2 stats.Smpi.messages

let test_barrier_synchronizes () =
  let program = [| [ compute 1000; Smpi.Comm Smpi.Barrier ]; [ Smpi.Comm Smpi.Barrier ] |] in
  let _, ifaces = run 2 program in
  Alcotest.(check bool) "fast rank waited" true (ifaces.(1).Smpi.now () >= 1000);
  Alcotest.(check int) "both at same time" (ifaces.(0).Smpi.now ()) (ifaces.(1).Smpi.now ())

let test_allreduce_all_finish_together () =
  let program =
    Array.init 4 (fun r -> [ compute (100 * (r + 1)); Smpi.Comm (Smpi.Allreduce { bytes = 64 }) ])
  in
  let stats, ifaces = run 4 program in
  let t0 = ifaces.(0).Smpi.now () in
  Array.iter (fun i -> Alcotest.(check int) "synchronized" t0 (i.Smpi.now ())) ifaces;
  Alcotest.(check int) "one collective" 1 stats.Smpi.collectives;
  Alcotest.(check bool) "after slowest" true (t0 >= 400)

let test_collective_mismatch_detected () =
  let program =
    [| [ Smpi.Comm Smpi.Barrier ]; [ Smpi.Comm (Smpi.Allreduce { bytes = 8 }) ] |]
  in
  match run 2 program with
  | exception Smpi.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected Deadlock on mismatched collectives"

let test_deadlock_detected () =
  (* Both ranks recv first: classic deadlock. *)
  let program =
    [|
      [ Smpi.Comm (Smpi.Recv { src = 1; bytes = 8; tag = 0 }) ];
      [ Smpi.Comm (Smpi.Recv { src = 0; bytes = 8; tag = 0 }) ];
    |]
  in
  match run 2 program with
  | exception Smpi.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected Deadlock"

let test_rank_count_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Engine.run: rank count mismatch") (fun () ->
      let ifaces = Array.init 2 (fun _ -> fst (counter_iface ())) in
      ignore (Smpi.Engine.run (fabric ()) ifaces [| [] |]))

let test_chunked_interleaving () =
  (* With a tiny quantum the engine must still complete correctly. *)
  let program = [| [ compute 5000; Smpi.Comm Smpi.Barrier ]; [ compute 5000; Smpi.Comm Smpi.Barrier ] |] in
  let _, ifaces = run ~quantum:7 2 program in
  Alcotest.(check int) "rank0 done" (ifaces.(0).Smpi.now ()) (ifaces.(1).Smpi.now ());
  Alcotest.(check bool) "computed everything" true (ifaces.(0).Smpi.now () >= 5000)

let test_alltoall_scales_with_ranks () =
  let mk ranks =
    let program = Array.init ranks (fun _ -> [ Smpi.Comm (Smpi.Alltoall { bytes_per_rank = 512 }) ]) in
    let _, ifaces = run ranks program in
    ifaces.(0).Smpi.now ()
  in
  Alcotest.(check bool) "4 ranks cost more than 2" true (mk 4 > mk 2)

let test_bcast_reduce_allgather_complete () =
  let ops =
    [ Smpi.Bcast { root = 0; bytes = 256 }; Smpi.Reduce { root = 0; bytes = 256 }; Smpi.Allgather { bytes = 128 } ]
  in
  let program = Array.init 3 (fun _ -> List.map (fun o -> Smpi.Comm o) ops) in
  let stats, _ = run 3 program in
  Alcotest.(check int) "three collectives" 3 stats.Smpi.collectives

let prop_more_bytes_not_faster =
  QCheck.Test.make ~name:"bigger messages never complete earlier" ~count:50
    QCheck.(pair (int_range 8 4096) (int_range 8 4096))
    (fun (b1, b2) ->
      let time bytes =
        let program =
          [|
            [ Smpi.Comm (Smpi.Send { dst = 1; bytes; tag = 0 }) ];
            [ Smpi.Comm (Smpi.Recv { src = 0; bytes; tag = 0 }) ];
          |]
        in
        let _, ifaces = run 2 program in
        ifaces.(1).Smpi.now ()
      in
      let lo = min b1 b2 and hi = max b1 b2 in
      time lo <= time hi)

(* --------------------------------------------- feed_until vs the old loop *)

module Soc = Platform.Soc

(* The loop the cores' [feed_until] replaced: check the clock, then feed
   one instruction through [Inorder.feed]/[Ooo.feed]. *)
let rec feed_one_at_a_time soc (core : Smpi.rank_iface) s ~horizon =
  if core.now () >= horizon then Some s
  else
    match s () with
    | Seq.Nil -> None
    | Seq.Cons (i, tl) ->
      Soc.feed_insn soc 0 i;
      feed_one_at_a_time soc core tl ~horizon

(* Feed [insns] under [horizons] (then to the end) on a fresh SoC; at
   every yield record (clock, instructions left in the tail, elements
   forced so far), and at the end the collected result. *)
let drive config feed insns horizons =
  let soc = Soc.create config in
  let core = Soc.core_iface soc 0 in
  let feed = feed soc core in
  let a = Array.of_list insns in
  let forced = ref 0 in
  let rec from k () =
    incr forced;
    if k = Array.length a then Seq.Nil else Seq.Cons (a.(k), from (k + 1))
  in
  let left s =
    let saved = !forced in
    let n = Seq.length s in
    forced := saved;
    n
  in
  let rec go s yields = function
    | [] ->
      (match feed s ~horizon:max_int with
      | None -> ()
      | Some _ -> Alcotest.fail "stream stopped short of the end");
      List.rev yields
    | h :: hs -> (
      match feed s ~horizon:h with
      | None -> List.rev yields
      | Some tl -> go tl ((core.now (), left tl, !forced) :: yields) hs)
  in
  let yields = go (from 0) [] horizons in
  let r = Soc.collect_result soc ~ranks:1 ~comm:None in
  Soc.release soc;
  (yields, r)

let feed_until_soc _ (core : Smpi.rank_iface) = core.feed_until

let feed_platforms = [ Platform.Catalog.banana_pi_sim; Platform.Catalog.boom_large ]

(* The burst loop and the old loop agree at every yield and at the end,
   and the tail at a yield is unforced: [Some why] if not. *)
let feed_mismatch insns horizons =
  let show ys = String.concat " " (List.map (fun (t, l, f) -> Printf.sprintf "(%d,%d,%d)" t l f) ys) in
  let n = List.length insns in
  List.find_map
    (fun (config : Platform.Config.t) ->
      let got, r = drive config feed_until_soc insns horizons in
      let want, r' = drive config feed_one_at_a_time insns horizons in
      if List.exists (fun (_, left, forced) -> forced <> n - left) got then
        Some (Printf.sprintf "%s: a yield's tail was forced: %s" config.name (show got))
      else if got <> want then
        Some
          (Printf.sprintf "%s: yields (now, left, forced) %s, want %s" config.name (show got)
             (show want))
      else if r <> r' then
        Some (Printf.sprintf "%s: results differ (cycles %d, want %d)" config.name r.cycles r'.cycles)
      else None)
    feed_platforms

let insn_gen =
  QCheck.Gen.(
    let reg = int_range 0 31 in
    let pc = map (fun k -> 0x10000 + (k * 4)) (int_range 0 2047) in
    let addr = map (fun k -> 0x400000 + (k * 8)) (int_range 0 65535) in
    frequency
      [
        (4, map3 (fun pc dst (src1, src2) -> I.make ~dst ~src1 ~src2 ~pc I.Int_alu) pc reg (pair reg reg));
        ( 2,
          map3
            (fun pc dst (addr, src1) -> I.make ~dst ~src1 ~mem:{ I.addr; size = 8 } ~pc I.Load)
            pc reg (pair addr reg) );
        ( 2,
          map3
            (fun pc addr (src1, src2) -> I.make ~src1 ~src2 ~mem:{ I.addr; size = 8 } ~pc I.Store)
            pc addr (pair reg reg) );
        ( 2,
          map3
            (fun pc src1 (taken, target) -> I.make ~src1 ~ctrl:{ I.taken; target } ~pc I.Branch)
            pc reg (pair bool pc) );
      ])

(* Horizons walk forward with occasional steps back, so some are already
   passed when they come up. *)
let horizons_gen =
  QCheck.Gen.(
    map
      (fun (h0, steps) ->
        List.rev (snd (List.fold_left (fun (h, acc) d -> (h + d, (h + d) :: acc)) (h0, [ h0 ]) steps)))
      (pair (int_range (-5) 600) (list_size (int_range 0 12) (int_range (-400) 2500))))

let prop_feed_until_matches_old_loop =
  QCheck.Test.make ~name:"feed_until = clock check + feed per insn (in-order, OoO)" ~count:60
    (QCheck.make
       ~print:(fun (insns, hs) ->
         Printf.sprintf "%d insns, horizons [%s]" (List.length insns)
           (String.concat ";" (List.map string_of_int hs)))
       QCheck.Gen.(pair (list_size (int_range 0 300) insn_gen) horizons_gen))
    (fun (insns, horizons) ->
      match feed_mismatch insns horizons with None -> true | Some why -> QCheck.Test.fail_report why)

(* The edge cases by construction: an empty stream, a horizon already
   passed, and a dependent chain whose last instruction brings the clock
   exactly to the horizon (the yield then hands back an empty tail). *)
let test_feed_until_edges () =
  let check name insns horizons =
    Alcotest.(check (option string)) name None (feed_mismatch insns horizons)
  in
  check "empty stream" [] [ 0; 10 ];
  check "empty stream, horizon passed" [] [ -1 ];
  let chain = List.init 50 (fun i -> alu ~pc:(i * 4)) in
  check "horizon passed on entry" chain [ 0; -3; 20; 5; 200 ];
  List.iter
    (fun (config : Platform.Config.t) ->
      let _, r = drive config feed_one_at_a_time chain [] in
      let ends = r.Soc.cycles in
      check (config.name ^ ": stream ends at the horizon") chain [ ends; ends + 1 ];
      match fst (drive config feed_until_soc chain [ ends ]) with
      | [ (now, left, _) ] ->
        Alcotest.(check int) "yields at the horizon" ends now;
        Alcotest.(check int) "with an empty tail" 0 left
      | _ -> Alcotest.fail "expected one yield at the end")
    feed_platforms

let suite =
  [
    Alcotest.test_case "single rank compute" `Quick test_single_rank_compute;
    Alcotest.test_case "send/recv" `Quick test_send_recv;
    Alcotest.test_case "recv waits for sender" `Quick test_recv_waits_for_compute;
    Alcotest.test_case "sendrecv no deadlock" `Quick test_sendrecv_symmetric_no_deadlock;
    Alcotest.test_case "tag matching" `Quick test_tag_matching;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "allreduce synchronizes" `Quick test_allreduce_all_finish_together;
    Alcotest.test_case "collective mismatch" `Quick test_collective_mismatch_detected;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "rank count mismatch" `Quick test_rank_count_mismatch;
    Alcotest.test_case "chunked interleaving" `Quick test_chunked_interleaving;
    Alcotest.test_case "alltoall scales" `Quick test_alltoall_scales_with_ranks;
    Alcotest.test_case "bcast/reduce/allgather" `Quick test_bcast_reduce_allgather_complete;
    QCheck_alcotest.to_alcotest prop_more_bytes_not_faster;
    Alcotest.test_case "feed_until edges vs one at a time" `Quick test_feed_until_edges;
    QCheck_alcotest.to_alcotest prop_feed_until_matches_old_loop;
  ]
