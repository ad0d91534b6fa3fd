(* The serve-hol workload: a `simbridge serve --jobs 1` daemon in a
   child process, driven by this single-threaded generator over two
   connections.  The cold connection is a closed loop of distinct cell
   queries, so every one computes; the hot connection is an open loop of
   already-cached queries at a fixed rate, timed from when each was
   due.  A hot query that lands behind a cold computation waits for it:
   the head-of-line blocking this workload exists to show. *)

open Measure
module P = Serve.Protocol

let name = "serve-hol"
(* The traffic mix is set, not derived from recorded traffic;
   perfbench/README.md says why the hot latency does not depend on the
   rate or the key count.  Scale 2 makes a cold computation (about 15 ms
   on average) long next to the daemon's per-request thread hand-offs,
   whose cost swings with host load.  50 hot queries a second give about
   1500 latency samples in a 30-second run. *)
let scale = 2.0
let hot_rate = 50.0  (* hot queries per second, Poisson arrivals *)
let tail_q = 0.95

(* Every evaluated kernel but MIP, whose 2 M instructions are 20 times
   the next largest kernel's: its 7 cold cells would take half of all
   cold compute time, and the hot latency quantiles would hinge on how
   many hot queries land in one of them.  Without it, cold computations
   run 10 k to 100 k instructions (at scale 1), and the quantiles fall
   among many cells. *)
let kernels = List.filter (fun (k : Cells.W.kernel) -> k.name <> "MIP") Cells.kernels

(* Set-up computes one cell per kernel, which also fills the daemon's
   trace cache; every fifth of them is a hot key.  The cold keys are the
   other platforms' cells, distinct from the set-up ones. *)
let warm_cells = List.map (fun k -> (Cells.fig1_hw, k)) kernels
let hot_cells = List.filteri (fun i _ -> i mod 5 = 0) warm_cells

let cold_cells =
  List.concat_map
    (fun k ->
      List.filter_map
        (fun cfg -> if cfg == Cells.fig1_hw then None else Some (cfg, k))
        Cells.micro_platforms)
    kernels

let cell_id (cfg, k) = Cells.kernel_id cfg k

let query (cfg, (k : Cells.W.kernel)) =
  P.Run (P.Cell { platform = cfg.Platform.Config.name; kernel = k.name; scale })

(* ---------------------------------------------------------- connections *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let rec connect ~sock ~pid ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> { fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "serve daemon exited before listening");
    if now () > deadline then failwith "serve daemon never listened";
    Unix.sleepf 0.002;
    connect ~sock ~pid ~deadline

let send tel c (rq : P.request) =
  let line = Tracer.span tel "serve.codec" (fun () -> P.print_request rq) ^ "\n" in
  Tracer.span tel "serve.socket" (fun () ->
      let b = Bytes.of_string line in
      let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
      go 0)

(* Read what is available and return the complete frames, decoded. *)
let recv tel c =
  let chunk = Bytes.create 65536 in
  let n = Tracer.span tel "serve.socket" (fun () -> Unix.read c.fd chunk 0 (Bytes.length chunk)) in
  if n = 0 then failwith "serve daemon closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  let lines = String.split_on_char '\n' s in
  let rec split acc = function
    | [ rest ] ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf rest;
      List.rev acc
    | l :: rest -> split (l :: acc) rest
    | [] -> List.rev acc
  in
  List.map (fun l -> Tracer.span tel "serve.codec" (fun () -> P.parse_response l)) (split [] lines)

let rec await tel c = match recv tel c with [] -> await tel c | rs -> rs

(* ------------------------------------------------------------- daemon *)

let spawn_daemon ~cli ~sock =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [| cli; "serve"; "--jobs"; "1"; "--listen"; "unix:" ^ sock; "--report"; ""; "--response-cache"; "128";
       "--trace-cache-mib"; "1024" |]
  in
  let pid = Unix.create_process cli args devnull devnull devnull in
  Unix.close devnull;
  pid

let rec reap pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
    Unix.sleepf 0.01;
    reap pid deadline
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()

(* ------------------------------------------------------------ checking *)

let oracle id = Cells.ref_string name "oracle" id

type answer = {
  a_ok : bool;
  a_insns : int;  (** simulated instructions, set-up stream included *)
  a_cycles : int;
  a_served : string;
  a_queue_wait_s : float;
  a_compute_s : float;
}

(* Check one response against the oracle payload of its cell. *)
let answer t cell (r : (P.response, string) result) =
  attempt t;
  let failed =
    { a_ok = false; a_insns = 0; a_cycles = 0; a_served = ""; a_queue_wait_s = 0.0; a_compute_s = 0.0 }
  in
  let id = cell_id cell in
  match r with
  | Error e ->
    fail t "%s: unreadable frame: %s" id e;
    failed
  | Ok { P.rs_result = Error e; _ } ->
    fail t "%s: error frame: %s" id e;
    failed
  | Ok { P.rs_result = Ok (payload, report); _ } ->
    if oracle id <> Some (Digest.to_hex (Digest.string payload)) then begin
      fail t "%s: payload differs from the oracle" id;
      failed
    end
    else
      let row = List.nth (String.split_on_char '\n' payload) 1 in
      let insns, cycles = Scanf.sscanf row "%_[^,],%_[^,],%_[^,],%d,%d" (fun c i -> (i, c)) in
      let si, sc = Cells.setup_work name id in
      let num f = match J.member f report with Some (J.Num x) -> x | _ -> 0.0 in
      {
        a_ok = true;
        a_insns = insns + si;
        a_cycles = cycles + sc;
        a_served = (match J.member "served" report with Some (J.Str s) -> s | _ -> "");
        a_queue_wait_s = num "queue_wait_s";
        a_compute_s = num "compute_wall_s";
      }

(* ---------------------------------------------------------- the daemon *)

type daemon = { pid : int; cold : conn; hot : conn; setup_s : float }

(* Start the daemon, compute the set-up cells on the cold connection
   (warm once every answer is back; set-up time is scaled to the
   reference host speed), run [f], then drain the daemon.  The daemon is
   killed if anything fails on the way. *)
let with_daemon ~cli ~t f =
  ensure_out_dir ();
  let sock = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  if Sys.file_exists sock then Sys.remove sock;
  let spawned = now () in
  let pid = spawn_daemon ~cli ~sock in
  let conns = ref [] in
  let finally () =
    (match !conns with
    | cold :: _ -> (
      try
        send Tracer.off cold { P.rq_id = "bye"; rq_op = P.Shutdown };
        ignore (await Tracer.off cold)
      with Failure _ | Unix.Unix_error _ -> ())
    | [] -> ());
    List.iter (fun c -> Unix.close c.fd) !conns;
    reap pid (now () +. 30.0);
    if Sys.file_exists sock then Sys.remove sock
  in
  Fun.protect ~finally (fun () ->
      let deadline = spawned +. 60.0 in
      let cold = connect ~sock ~pid ~deadline in
      conns := [ cold ];
      let hot = connect ~sock ~pid ~deadline in
      conns := [ cold; hot ];
      let warm = Array.of_list warm_cells in
      Array.iteri (fun i c -> send Tracer.off cold { P.rq_id = Printf.sprintf "w%d" i; rq_op = query c }) warm;
      let left = ref (Array.length warm) in
      while !left > 0 do
        List.iter
          (fun r ->
            let cell =
              match r with
              | Ok rs -> warm.(int_of_string (String.sub rs.P.rs_id 1 (String.length rs.P.rs_id - 1)))
              | Error _ -> warm.(0)
            in
            ignore (answer t cell r);
            decr left)
          (await Tracer.off cold)
      done;
      f { pid; cold; hot; setup_s = Gauge.scale_setup (now () -. spawned) })

let stats_payload tel d =
  send tel d.cold { P.rq_id = "stats"; rq_op = P.Stats };
  match await tel d.cold with
  | Ok { P.rs_result = Ok (payload, _); _ } :: _ -> (
    match J.parse payload with Ok j -> j | Error _ -> J.Null)
  | _ -> J.Null

(* ---------------------------------------------------------------- load *)

(* Latencies and per-cell times are scaled to the reference host speed
   (Gauge). *)
type load = {
  cold_lat : float list;  (** ms, send to answer *)
  hot_lat : float list;  (** ms, due time to answer *)
  hot_by_cycle : float list list;  (** the same, grouped by the cold cycle they were due in *)
  late : float list;  (** ms the generator sent each hot query after it was due *)
  answers : answer list;  (** every cold and hot answer *)
  per_cell : (string, int * int * float list) Hashtbl.t;
      (** cold cell -> instructions, cycles, send-to-answer seconds *)
  cold_done : int;
  window_s : float;
  slowdown : float;  (** the host's median slowdown over the load *)
}

(* The keys in one seed-permuted order, repeated: a key comes back only
   after every other key, so a cold key has left the response cache by
   the time it is queried again. *)
let cycle rng cells =
  let order = Array.of_list (shuffle rng cells) in
  let i = ref (-1) in
  fun () ->
    i := (!i + 1) mod Array.length order;
    order.(!i)

(* The host speed is sampled in the generator between a cold answer and
   the next cold query, at most once per [gauge_every]: the daemon, on
   the same CPU, is idle then but for hot look-ups. *)
let gauge_every = 0.05

let run_load ~tel ~t ~rng ~seconds d =
  Gauge.with_gauge @@ fun g ->
  let last_sample = ref Float.neg_infinity in
  let next_cold = cycle rng cold_cells and next_hot = cycle rng hot_cells in
  let seq = ref 0 in
  let request c = incr seq; { P.rq_id = Printf.sprintf "q%d" !seq; rq_op = query c } in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let cold_lat = ref [] and hot_lat = ref [] and late = ref [] and answers = ref [] in
  let per_cell = Hashtbl.create 512 and cold_done = ref 0 and last_cold = ref t0 in
  let n_cold = List.length cold_cells in
  let cold_inflight = ref None and cold_sent = ref 0 in
  let send_cold () =
    let c = next_cold () in
    incr cold_sent;
    cold_inflight := Some (c, now ());
    send tel d.cold (request c)
  in
  let hot_inflight = Queue.create () in
  (* Seeded Poisson arrivals: a fixed period would alias with the cold
     cycle and make the hot latencies depend on the phase between them. *)
  let due = ref t0 in
  let next_due () = due := !due -. (log (1.0 -. Random.State.float rng 1.0) /. hot_rate) in
  next_due ();
  (* The load runs whole cycles over the cold cells, past [t_end] to the
     end of the cycle in progress, and the hot stream runs as long: in
     every run, the hot queries land behind each cold cell equally
     often. *)
  let loading () = now () < t_end || !cold_sent mod n_cold <> 0 in
  send_cold ();
  let deadline = t_end +. 120.0 in
  while (loading () || !cold_inflight <> None || not (Queue.is_empty hot_inflight)) && now () < deadline do
    while loading () && !due <= now () do
      let c = next_hot () in
      late := ((now () -. !due) *. 1e3) :: !late;
      Queue.push (c, !due, (!cold_sent - 1) / n_cold) hot_inflight;
      send tel d.hot (request c);
      next_due ()
    done;
    let timeout = if loading () then Float.max 0.0 (!due -. now ()) else 1.0 in
    let readable, _, _ =
      Tracer.span tel "serve.socket" (fun () -> Unix.select [ d.cold.fd; d.hot.fd ] [] [] timeout)
    in
    if List.mem d.cold.fd readable then
      List.iter
        (fun r ->
          match !cold_inflight with
          | None -> fail t "cold: unexpected frame"
          | Some (c, sent) ->
            let a = answer t c r in
            let at = now () in
            answers := a :: !answers;
            cold_lat := (at, if a.a_ok then (at -. sent) *. 1e3 else Float.infinity) :: !cold_lat;
            if a.a_ok then begin
              let id = cell_id c in
              let secs = match Hashtbl.find_opt per_cell id with Some (_, _, l) -> l | None -> [] in
              Hashtbl.replace per_cell id (a.a_insns, a.a_cycles, (at, at -. sent) :: secs);
              incr cold_done;
              last_cold := at
            end;
            if at -. !last_sample >= gauge_every then begin
              Gauge.sample g;
              last_sample := now ()
            end;
            if loading () then send_cold () else cold_inflight := None)
        (recv tel d.cold);
    if List.mem d.hot.fd readable then
      List.iter
        (fun r ->
          match Queue.take_opt hot_inflight with
          | None -> fail t "hot: unexpected frame"
          | Some (c, due_at, cycle) ->
            let a = answer t c r in
            let at = now () in
            answers := a :: !answers;
            hot_lat := (cycle, (at, if a.a_ok then (at -. due_at) *. 1e3 else Float.infinity)) :: !hot_lat)
        (recv tel d.hot)
  done;
  if now () >= deadline then fail t "load did not drain within 120 s";
  Gauge.sample g;
  let scale = List.map (fun (at, x) -> Gauge.scale g ~at x) in
  let scaled = Hashtbl.create 512 in
  Hashtbl.iter (fun id (i, c, secs) -> Hashtbl.replace scaled id (i, c, scale secs)) per_cell;
  {
    cold_lat = scale !cold_lat;
    hot_lat = scale (List.map snd !hot_lat);
    hot_by_cycle =
      List.init (!cold_sent / n_cold) (fun k ->
          scale (List.filter_map (fun (c, x) -> if c = k then Some x else None) !hot_lat));
    late = !late;
    answers = !answers;
    per_cell = scaled;
    cold_done = !cold_done;
    window_s = !last_cold -. t0;
    slowdown = Gauge.overall g;
  }

(* Throughput as in the batch workloads, timed by the generator: each
   cold cell counts once, at the median of its scaled send-to-answer
   times on the closed cold loop, however many times the run queried it.
   Codec, socket, queue and dispatcher costs are in it with the
   compute.  The hot latency quantiles are taken in each cold cycle
   (about 250 hot queries, 12 beyond p95), and the median over the
   cycles is reported: a hot query's wait is the rest of the cold
   computation it lands behind, so the tail rests on the few longest
   cold cells, and one slow computation of them would move a quantile
   taken over the whole run. *)
let e2e_metrics l ~rss =
  let cells = Hashtbl.fold (fun _ (i, c, lats) acc -> (i, c, median lats) :: acc) l.per_cell [] in
  let host_s = sum (List.map (fun (_, _, s) -> s) cells) in
  let work f = float_of_int (isum (List.map f cells)) in
  [
    metric "mips" "Minsn/s" (work (fun (i, _, _) -> i) /. host_s /. 1e6);
    metric "target_mhz" "MHz" (work (fun (_, c, _) -> c) /. host_s /. 1e6);
    metric "p50_ms" "ms" (median (List.map median l.hot_by_cycle));
    metric "tail_ms" "ms" (median (List.map (fun c -> quantile c tail_q) l.hot_by_cycle));
    metric "peak_rss_mib" "MiB" rss;
  ]

let run ~cli ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let t = tally () in
  with_daemon ~cli ~t (fun d ->
      let setup_s = d.setup_s in
      if not trace then begin
        let l = run_load ~tel:Tracer.off ~t ~rng ~seconds d in
        let rss = peak_rss_mib (string_of_int d.pid) in
        let computed = List.length (List.filter (fun a -> a.a_ok && a.a_served = "computed") l.answers) in
        emit ~setup_s ~t (e2e_metrics l ~rss)
          [
            ("cold_queries", J.Num (float_of_int l.cold_done));
            ("hot_queries", J.Num (float_of_int (List.length l.hot_lat)));
            ("computed", J.Num (float_of_int computed));
            ("late_p95_ms", J.Num (quantile l.late tail_q));
            ("slowdown", J.Num l.slowdown);
          ]
      end
      else begin
        (* Half the time untraced, half traced: the difference in cold
           throughput is the tracing overhead. *)
        let plain = run_load ~tel:Tracer.off ~t ~rng ~seconds:(seconds /. 2.0) d in
        let tel = Tracer.create () in
        let l, stats =
          Tracer.root tel "bench" (fun () ->
              let l = run_load ~tel ~t ~rng ~seconds:(seconds /. 2.0) d in
              (l, stats_payload tel d))
        in
        let values = Hashtbl.create 64 in
        let set n v = Hashtbl.replace values n v in
        let qps l = float_of_int l.cold_done /. l.window_s in
        let served = List.filter (fun a -> a.a_ok) l.answers in
        let waits = List.map (fun a -> a.a_queue_wait_s *. 1e3) served in
        let computes =
          List.filter_map (fun a -> if a.a_served = "computed" then Some (a.a_compute_s *. 1e3) else None) served
        in
        let stat f = match J.member f stats with Some (J.Num x) -> x | _ -> 0.0 in
        let codec_total, _, codec_n = Tracer.self_times tel "serve.codec" in
        set "serve.codec_us" (ratio (codec_total *. 1e6) (float_of_int codec_n));
        set "serve.queue_wait_p50_ms" (median waits);
        set "serve.queue_wait_tail_ms" (quantile waits tail_q);
        set "serve.compute_ms" (median computes);
        set "serve.cold_p50_ms" (median l.cold_lat);
        set "serve.cold_tail_ms" (quantile l.cold_lat tail_q);
        set "serve.qps" (qps l);
        set "serve.cached_ratio" (ratio (stat "cached") (stat "computed" +. stat "coalesced" +. stat "cached"));
        set "serve.requests_per_batch" (ratio (stat "requests") (stat "batches"));
        set "gen.late_ms" (quantile l.late tail_q);
        set "telemetry.overhead_pct" (100.0 *. ratio (qps plain -. qps l) (qps l));
        Layers.add_self_times values tel;
        let trace_file = Printf.sprintf "%s/%s-trace.json" out_dir name in
        Out_channel.with_open_bin trace_file (fun oc -> output_string oc (Telemetry.Export.chrome_trace tel));
        emit ~setup_s ~t (Layers.metrics values) [ ("trace_file", J.Str trace_file) ]
      end)

let setup ~cli =
  let t = tally () in
  with_daemon ~cli ~t (fun d -> emit ~setup_s:d.setup_s ~t [] [])

(* The oracle payload digest of every cell the workload queries, and the
   cells' set-up stream work. *)
let reference_section () =
  ( name,
    J.Obj
      [
        Cells.setup_work_section ~scale kernels;
        ( "oracle",
          J.Obj
            (List.map
               (fun c ->
                 let q = match query c with P.Run q -> q | _ -> assert false in
                 match Serve.Engine.oracle q with
                 | Ok payload -> (cell_id c, J.Str (Digest.to_hex (Digest.string payload)))
                 | Error e -> failwith e)
               (warm_cells @ cold_cells)) );
      ] )
