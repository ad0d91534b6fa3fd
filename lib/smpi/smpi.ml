type op =
  | Send of { dst : int; bytes : int; tag : int }
  | Recv of { src : int; bytes : int; tag : int }
  | Sendrecv of { peer : int; send_bytes : int; recv_bytes : int; tag : int }
  | Barrier
  | Bcast of { root : int; bytes : int }
  | Reduce of { root : int; bytes : int }
  | Allreduce of { bytes : int }
  | Alltoall of { bytes_per_rank : int }
  | Allgather of { bytes : int }

type segment =
  | Compute of Isa.Insn.t Seq.t
  | Comm of op

type program = segment list array

let pp_op ppf = function
  | Send { dst; bytes; tag } -> Format.fprintf ppf "send(dst=%d,%dB,tag=%d)" dst bytes tag
  | Recv { src; bytes; tag } -> Format.fprintf ppf "recv(src=%d,%dB,tag=%d)" src bytes tag
  | Sendrecv { peer; send_bytes; recv_bytes; tag } ->
    Format.fprintf ppf "sendrecv(peer=%d,%d/%dB,tag=%d)" peer send_bytes recv_bytes tag
  | Barrier -> Format.fprintf ppf "barrier"
  | Bcast { root; bytes } -> Format.fprintf ppf "bcast(root=%d,%dB)" root bytes
  | Reduce { root; bytes } -> Format.fprintf ppf "reduce(root=%d,%dB)" root bytes
  | Allreduce { bytes } -> Format.fprintf ppf "allreduce(%dB)" bytes
  | Alltoall { bytes_per_rank } -> Format.fprintf ppf "alltoall(%dB/rank)" bytes_per_rank
  | Allgather { bytes } -> Format.fprintf ppf "allgather(%dB)" bytes

type fabric = {
  latency_cycles : int;
  transfer : src:int -> dst:int -> cycle:int -> bytes:int -> int;
}

type rank_iface = {
  feed_until : Isa.Insn.t Seq.t -> horizon:int -> Isa.Insn.t Seq.t option;
  now : unit -> int;
  advance_to : int -> unit;
}

type comm_stats = {
  messages : int;
  bytes_moved : int;
  collectives : int;
  comm_cycles_max : int;
}

exception Deadlock of string

let log = Logs.Src.create "simbridge.smpi" ~doc:"MPI co-simulation engine"

module Log = (val Logs.src_log log : Logs.LOG)

module Engine = struct
  type message = { m_bytes : int; avail : int }

  (* Per-rank cursor state. *)
  type rank_state = {
    mutable segments : segment list;
    mutable coll_index : int;  (* how many collectives this rank has entered *)
    mutable coll_posted : bool;  (* arrival at current collective recorded? *)
  }

  type coll_slot = {
    template : op;
    mutable arrivals : int;
    mutable max_time : int;
    mutable finish : int;  (* -1 until resolved *)
  }

  let stages n = if n <= 1 then 0 else int_of_float (Float.ceil (Float.log2 (float_of_int n)))

  let same_collective a b =
    match (a, b) with
    | Barrier, Barrier -> true
    | Bcast { root = r1; bytes = b1 }, Bcast { root = r2; bytes = b2 } -> r1 = r2 && b1 = b2
    | Reduce { root = r1; bytes = b1 }, Reduce { root = r2; bytes = b2 } -> r1 = r2 && b1 = b2
    | Allreduce { bytes = b1 }, Allreduce { bytes = b2 } -> b1 = b2
    | Alltoall { bytes_per_rank = b1 }, Alltoall { bytes_per_rank = b2 } -> b1 = b2
    | Allgather { bytes = b1 }, Allgather { bytes = b2 } -> b1 = b2
    | _ -> false

  let is_collective = function
    | Barrier | Bcast _ | Reduce _ | Allreduce _ | Alltoall _ | Allgather _ -> true
    | Send _ | Recv _ | Sendrecv _ -> false

  (* Cost of a resolved collective, charged through the shared fabric so
     that concurrent traffic contends.  [t0] is the arrival of the last
     rank. *)
  let collective_finish fabric nranks t0 = function
    | Barrier -> t0 + (2 * stages nranks * fabric.latency_cycles)
    | Bcast { bytes; _ } | Reduce { bytes; _ } ->
      let t = ref t0 in
      for s = 0 to stages nranks - 1 do
        t := fabric.transfer ~src:0 ~dst:(min (nranks - 1) (1 lsl s)) ~cycle:(!t + fabric.latency_cycles) ~bytes
      done;
      !t
    | Allreduce { bytes } ->
      let t = ref t0 in
      for s = 0 to (2 * stages nranks) - 1 do
        let d = min (nranks - 1) (1 lsl (s mod stages nranks)) in
        t := fabric.transfer ~src:0 ~dst:d ~cycle:(!t + fabric.latency_cycles) ~bytes
      done;
      !t
    | Alltoall { bytes_per_rank } ->
      (* n*(n-1) pairwise messages serialized through the shared fabric. *)
      let t = ref t0 in
      for i = 0 to nranks - 1 do
        for j = 0 to nranks - 1 do
          if i <> j then
            t := fabric.transfer ~src:i ~dst:j ~cycle:(!t + fabric.latency_cycles) ~bytes:bytes_per_rank
        done
      done;
      !t
    | Allgather { bytes } ->
      (* Recursive doubling: stage s moves 2^s * bytes between partners
         2^s apart. *)
      let t = ref t0 in
      let chunk = ref bytes in
      for s = 0 to stages nranks - 1 do
        t := fabric.transfer ~src:0 ~dst:(min (nranks - 1) (1 lsl s)) ~cycle:(!t + fabric.latency_cycles) ~bytes:!chunk;
        chunk := !chunk * 2
      done;
      !t
    | Send _ | Recv _ | Sendrecv _ -> invalid_arg "collective_finish"

  let collective_bytes nranks = function
    | Barrier -> 0
    | Bcast { bytes; _ } | Reduce { bytes; _ } -> bytes * stages nranks
    | Allreduce { bytes } -> 2 * bytes * stages nranks
    | Alltoall { bytes_per_rank } -> nranks * (nranks - 1) * bytes_per_rank
    | Allgather { bytes } -> bytes * (nranks - 1)
    | Send _ | Recv _ | Sendrecv _ -> 0

  (* Horizon advances between two [Thread.yield]s, for the same reason
     as the replay slice of [Simbridge.Runner]: a systhread waiting for
     the domain's runtime lock (a serve daemon's reader answering a
     cached query) gets it within one batch instead of at the 50 ms
     tick.  The fig3-7 app cells, timed per run in a release build on a
     2-vCPU VM, average 0.5-25.6 us per advance (median 3.0 us over 140
     runs), so 16 advances take ~0.4 ms in the slowest cell, like a
     replay slice of 8,192 instructions; a yield with no thread waiting
     returns at once.  A power of two, so the count is tested with a mask. *)
  let yield_every = 16

  let run ?(quantum = 100) ?(telemetry = Telemetry.Registry.disabled) fabric ifaces program =
    let quantum = max 1 quantum in
    let horizon = ref quantum in
    let advances = ref 0 in
    let nranks = Array.length ifaces in
    if Array.length program <> nranks then invalid_arg "Engine.run: rank count mismatch";
    (* Telemetry handles are created once; on the disabled sink they are
       dead cells and every update below is a dropped store. *)
    let h_msg_bytes = Telemetry.Registry.histogram telemetry "smpi.msg_bytes" in
    let h_recv_wait = Telemetry.Registry.histogram telemetry "smpi.recv_wait_cycles" in
    let h_coll_wait = Telemetry.Registry.histogram telemetry "smpi.coll_wait_cycles" in
    let tr = Telemetry.Registry.trace telemetry in
    (* Event names and args are built only for a ring that keeps them: the
       disabled sink's ring, like that of a registry made with
       [~trace_capacity:0], has capacity 0 and would drop them unread. *)
    let tracing = Telemetry.Trace.capacity tr > 0 in
    let trace_op ~name ~rank ~ts ~dur ~bytes =
      Telemetry.Trace.record tr
        {
          Telemetry.Trace.name;
          cat = "smpi";
          ph = 'X';
          ts;
          dur = max 0 dur;
          tid = rank;
          args = (if bytes = 0 then [] else [ ("bytes", Telemetry.Trace.Int bytes) ]);
        }
    in
    let states =
      Array.map (fun segs -> { segments = segs; coll_index = 0; coll_posted = false }) program
    in
    let mailbox : (int * int * int, message Queue.t) Hashtbl.t = Hashtbl.create 64 in
    let colls : (int, coll_slot) Hashtbl.t = Hashtbl.create 16 in
    let s_messages = ref 0 in
    let s_bytes = ref 0 in
    let s_colls = ref 0 in
    let s_blocked_max = ref 0 in
    let post_message ~src ~dst ~tag msg =
      let key = (src, dst, tag) in
      let q = match Hashtbl.find_opt mailbox key with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add mailbox key q;
          q
      in
      Queue.push msg q
    in
    let take_message ~src ~dst ~tag =
      match Hashtbl.find_opt mailbox (src, dst, tag) with
      | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
      | _ -> None
    in
    let do_send iface ~rank ~dst ~bytes ~tag =
      let t0 = iface.now () in
      let done_ = fabric.transfer ~src:rank ~dst ~cycle:(t0 + fabric.latency_cycles) ~bytes in
      iface.advance_to done_;
      post_message ~src:rank ~dst ~tag { m_bytes = bytes; avail = done_ };
      incr s_messages;
      s_bytes := !s_bytes + bytes;
      Telemetry.Registry.observe h_msg_bytes (float_of_int bytes);
      if tracing then
        trace_op ~name:(Printf.sprintf "send->%d" dst) ~rank ~ts:t0 ~dur:(done_ - t0) ~bytes
    in
    (* Try to execute one segment of rank [r]; returns true on progress. *)
    let step r =
      let st = states.(r) in
      let iface = ifaces.(r) in
      match st.segments with
      | [] -> false
      | Compute stream :: rest ->
        (* Execute up to the shared cycle horizon, then yield so every
           rank's timestamps stay within one quantum of each other.  A
           rank already at the horizon waits for it to move; one below
           it feeds at least one instruction. *)
        let horizon = !horizon in
        if iface.now () >= horizon then false
        else begin
          (match iface.feed_until stream ~horizon with
          | None -> st.segments <- rest
          | Some tail -> st.segments <- Compute tail :: rest);
          true
        end
      | Comm (Send { dst; bytes; tag }) :: rest ->
        do_send iface ~rank:r ~dst ~bytes ~tag;
        st.segments <- rest;
        true
      | Comm (Recv { src; bytes; tag }) :: rest -> (
        match take_message ~src ~dst:r ~tag with
        | None -> false
        | Some msg ->
          let t0 = iface.now () in
          let start = max (t0 + fabric.latency_cycles) msg.avail in
          (* Copy-out from the shared buffer to the user buffer (local to
             the receiver). *)
          let done_ = fabric.transfer ~src:r ~dst:r ~cycle:start ~bytes:(max bytes msg.m_bytes) in
          s_blocked_max := max !s_blocked_max (done_ - t0);
          Telemetry.Registry.observe h_recv_wait (float_of_int (done_ - t0));
          if tracing then
            trace_op ~name:(Printf.sprintf "recv<-%d" src) ~rank:r ~ts:t0 ~dur:(done_ - t0) ~bytes;
          iface.advance_to done_;
          st.segments <- rest;
          true)
      | Comm (Sendrecv { peer; send_bytes; recv_bytes; tag }) :: rest ->
        (* Eager send makes the symmetric exchange deadlock-free: expand
           into Send;Recv. *)
        do_send iface ~rank:r ~dst:peer ~bytes:send_bytes ~tag;
        st.segments <- Comm (Recv { src = peer; bytes = recv_bytes; tag }) :: rest;
        true
      | Comm coll :: rest ->
        assert (is_collective coll);
        let slot =
          match Hashtbl.find_opt colls st.coll_index with
          | Some s ->
            if not (same_collective s.template coll) then
              raise
                (Deadlock
                   (Format.asprintf "rank %d: collective #%d mismatch: %a vs %a" r st.coll_index
                      pp_op coll pp_op s.template));
            s
          | None ->
            let s = { template = coll; arrivals = 0; max_time = 0; finish = -1 } in
            Hashtbl.add colls st.coll_index s;
            s
        in
        if not st.coll_posted then begin
          slot.arrivals <- slot.arrivals + 1;
          slot.max_time <- max slot.max_time (iface.now ());
          st.coll_posted <- true;
          if slot.arrivals = nranks then begin
            slot.finish <- collective_finish fabric nranks slot.max_time coll;
            incr s_colls;
            s_bytes := !s_bytes + collective_bytes nranks coll;
            Log.debug (fun m ->
                m "collective #%d %a: arrivals complete at %d, finish %d" st.coll_index pp_op coll
                  slot.max_time slot.finish)
          end
        end;
        if slot.finish >= 0 then begin
          let t0 = iface.now () in
          s_blocked_max := max !s_blocked_max (slot.finish - t0);
          Telemetry.Registry.observe h_coll_wait (float_of_int (max 0 (slot.finish - t0)));
          if tracing then
            trace_op
              ~name:(Format.asprintf "%a" pp_op coll)
              ~rank:r ~ts:t0 ~dur:(slot.finish - t0)
              ~bytes:(collective_bytes nranks coll);
          iface.advance_to slot.finish;
          st.coll_index <- st.coll_index + 1;
          st.coll_posted <- false;
          st.segments <- rest;
          true
        end
        else false
    in
    let all_done () = Array.for_all (fun st -> st.segments = []) states in
    let rec loop () =
      if not (all_done ()) then begin
        let progress = ref false in
        for r = 0 to nranks - 1 do
          (* One step (one chunk or one comm op) per rank per pass keeps
             ranks temporally interleaved. *)
          if step r then progress := true
        done;
        if not !progress then begin
          (* Every rank is either compute-bound at the horizon or blocked
             on communication.  If anyone still has compute, move time
             forward; otherwise the program is truly stuck. *)
          let has_compute =
            Array.exists (fun st -> match st.segments with Compute _ :: _ -> true | _ -> false) states
          in
          if has_compute then begin
            Log.debug (fun m -> m "horizon -> %d" (!horizon + quantum));
            horizon := !horizon + quantum;
            incr advances;
            if !advances land (yield_every - 1) = 0 then Thread.yield ()
          end
          else begin
            let blocked =
              Array.to_list states
              |> List.mapi (fun r st ->
                     match st.segments with
                     | Comm op :: _ -> Format.asprintf "rank %d blocked on %a" r pp_op op
                     | _ -> Format.asprintf "rank %d idle" r)
              |> String.concat "; "
            in
            raise (Deadlock blocked)
          end
        end;
        loop ()
      end
    in
    loop ();
    Telemetry.Registry.set_all telemetry
      [
        ("smpi.messages", !s_messages);
        ("smpi.bytes_moved", !s_bytes);
        ("smpi.collectives", !s_colls);
        ("smpi.comm_cycles_max", !s_blocked_max);
      ];
    {
      messages = !s_messages;
      bytes_moved = !s_bytes;
      collectives = !s_colls;
      comm_cycles_max = !s_blocked_max;
    }
end
