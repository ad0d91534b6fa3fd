module J = Util.Jsonx
module Reg = Telemetry.Registry
module Runner = Simbridge.Runner
module Experiments = Simbridge.Experiments

let num_i n = J.Num (float_of_int n)

(* What one computation left behind, cached alongside its payload so a
   response served from the LRU can still carry the phase breakdown of
   the run that produced it. *)
type entry = {
  en_payload : string;
  en_wall_s : float;
  en_phases : Ledger.Run_report.phase_row list;
  en_tc : Runner.trace_cache_stats;  (* delta over this computation *)
  en_span : string;
}

type t = {
  e_jobs : int option;
  e_reg : Reg.t;
  e_cache_cap : int;
  e_started_s : float;
  e_mutex : Mutex.t;  (* guards the LRU and the counters below *)
  mutable e_cache : (string * entry) list;  (* MRU first *)
  mutable e_seq : int;
  mutable e_requests : int;
  mutable e_computed : int;
  mutable e_cached : int;
  mutable e_inline : int;
  mutable e_errors : int;
  mutable e_running : int;  (* computations started and not finished *)
  mutable e_queued : int;  (* enqueued and not yet taken by [execute] *)
}

type pending = { p_req : Protocol.request; p_enqueued_s : float }

let create ?jobs ?(response_cache_capacity = 64) ?(telemetry = Reg.disabled) () =
  let jobs = match jobs with Some 0 | None -> None | Some j -> Some j in
  {
    e_jobs = jobs;
    e_reg = telemetry;
    e_cache_cap = response_cache_capacity;
    e_started_s = Unix.gettimeofday ();
    e_mutex = Mutex.create ();
    e_cache = [];
    e_seq = 0;
    e_requests = 0;
    e_computed = 0;
    e_cached = 0;
    e_inline = 0;
    e_errors = 0;
    e_running = 0;
    e_queued = 0;
  }

(* ------------------------------------------------------- response LRU *)

(* Caller holds [e_mutex]. *)
let cache_find_locked t key =
  match List.assoc_opt key t.e_cache with
  | None -> None
  | Some e ->
    t.e_cache <- (key, e) :: List.filter (fun (k, _) -> k <> key) t.e_cache;
    Some e

let cache_add t key e =
  if t.e_cache_cap > 0 then
    Mutex.protect t.e_mutex (fun () ->
        let rest = List.filter (fun (k, _) -> k <> key) t.e_cache in
        let rest = List.filteri (fun i _ -> i < t.e_cache_cap - 1) rest in
        t.e_cache <- (key, e) :: rest)

(* -------------------------------------------------------- computations *)

let unknown_figure figure =
  Printf.sprintf "unknown figure %S (known: %s)" figure (String.concat ", " Experiments.figure_ids)

let lookup_cell platform kernel =
  match Platform.Catalog.find platform with
  | exception Not_found ->
    Error (Printf.sprintf "unknown platform %S (see `simbridge platforms`)" platform)
  | cfg -> (
    match Workloads.Microbench.find kernel with
    | exception Not_found ->
      Error (Printf.sprintf "unknown kernel %S (see `simbridge experiments`)" kernel)
    | k -> Ok (cfg, k))

let figure_payload fmt fig =
  match fmt with `Csv -> Experiments.figure_csv fig | `Render -> Experiments.render_figure fig

let cell_payload (cfg : Platform.Config.t) (k : Workloads.Workload.kernel) scale
    (timed : Runner.timed) =
  let r = timed.Runner.result in
  Printf.sprintf "platform,kernel,scale,cycles,instructions,target_seconds\n%s,%s,%g,%d,%d,%.9g\n"
    cfg.Platform.Config.name k.Workloads.Workload.name scale r.Platform.Soc.cycles
    r.Platform.Soc.instructions r.Platform.Soc.seconds

(* The computation answering [q], as a function of the telemetry sink it
   records into, or [Error] for an unknown figure, platform or kernel.
   A cell runs as a one-cell grid so that its payload comes from the
   same code path at every [jobs]. *)
let computation ?jobs (q : Protocol.query) =
  match q with
  | Protocol.Figure { fmt; figure; scale } ->
    if List.mem figure Experiments.figure_ids then
      Ok
        (fun telemetry ->
          figure_payload fmt (Option.get (Experiments.figure_by_id ?jobs ~scale ~telemetry figure)))
    else Error (unknown_figure figure)
  | Protocol.Cell { platform; kernel; scale } ->
    Result.map
      (fun (cfg, k) telemetry ->
        match Runner.run_kernel_grid ?jobs ~scale ~telemetry [ (cfg, k) ] with
        | [ timed ] -> cell_payload cfg k scale timed
        | _ -> failwith "internal: grid arity mismatch")
      (lookup_cell platform kernel)

(* Run [f] against a private forked sink under a fresh root span,
   returning its result plus the computation metadata (wall, phases,
   trace-cache delta, span id).  The sink is merged into the daemon
   registry whether or not [f] raises, so partial telemetry is never
   lost. *)
let with_sink t ~name f =
  let seq = t.e_seq in
  t.e_seq <- seq + 1;
  let sink = Reg.fork ~ns:(Printf.sprintf "q%d." seq) t.e_reg in
  let tc0 = Runner.trace_cache_stats () in
  let w0 = Unix.gettimeofday () in
  let sp = Reg.span_start sink ~root:true name in
  let running d = Mutex.protect t.e_mutex (fun () -> t.e_running <- t.e_running + d) in
  running 1;
  let res = try Ok (f sink) with exn -> Error (Printexc.to_string exn) in
  running (-1);
  Reg.span_end sink sp ();
  let w1 = Unix.gettimeofday () in
  let tc1 = Runner.trace_cache_stats () in
  let phases = Ledger.Run_report.phase_breakdown sink in
  Reg.merge ~into:t.e_reg sink;
  let meta =
    {
      en_payload = "";
      en_wall_s = w1 -. w0;
      en_phases = phases;
      en_tc =
        Runner.
          {
            tc_hits = tc1.tc_hits - tc0.tc_hits;
            tc_misses = tc1.tc_misses - tc0.tc_misses;
            tc_evictions = tc1.tc_evictions - tc0.tc_evictions;
          };
      en_span = Reg.span_id sp;
    }
  in
  (res, meta)

(* ------------------------------------------------------------- reports *)

let report_schema = "simbridge-serve-report/1"

let request_report ~rq_id ?key ~served ~queue_wait_s ?entry () =
  let base =
    [
      ("schema", J.Str report_schema);
      ("request", J.Str rq_id);
      ("served", J.Str served);
      ("queue_wait_s", J.Num queue_wait_s);
    ]
  in
  let keyf = match key with Some k -> [ ("key", J.Str k) ] | None -> [] in
  let comp =
    match entry with
    | None -> []
    | Some e ->
      [
        ("compute_wall_s", J.Num e.en_wall_s);
        ("span", J.Str e.en_span);
        ("phases", Ledger.Run_report.phases_json e.en_phases);
        ("trace_cache", Ledger.Run_report.trace_cache_json e.en_tc);
      ]
  in
  J.Obj (base @ keyf @ comp)

let stats_json t =
  let tc = Runner.trace_cache_stats () in
  let uptime = Unix.gettimeofday () -. t.e_started_s in
  Mutex.protect t.e_mutex (fun () ->
      J.Obj
        [
          ("schema", J.Str "simbridge-serve-stats/1");
          ("uptime_s", J.Num uptime);
          ("requests", num_i t.e_requests);
          ("computed", num_i t.e_computed);
          ("cached", num_i t.e_cached);
          ("inline", num_i t.e_inline);
          ("errors", num_i t.e_errors);
          ("running", num_i t.e_running);
          ("queued", num_i t.e_queued);
          ( "response_cache",
            J.Obj
              [ ("size", num_i (List.length t.e_cache)); ("capacity", num_i t.e_cache_cap) ] );
          ("trace_cache", Ledger.Run_report.trace_cache_json tc);
          ("jobs", (match t.e_jobs with None -> J.Null | Some j -> num_i j));
        ])

let requests_served t = Mutex.protect t.e_mutex (fun () -> t.e_requests)

(* ------------------------------------------------------------- answers *)

let count_inline t =
  Mutex.protect t.e_mutex (fun () ->
      t.e_requests <- t.e_requests + 1;
      t.e_inline <- t.e_inline + 1)

(* Answer [rq] without computing: [Ping] and [Stats] inline, a [Run]
   whose key is in the response LRU from the cache; [None] for
   [Shutdown] and LRU misses.  It touches only the LRU and the counters,
   both under [e_mutex], and never the registry, so any thread may call
   it while [execute] runs on the dispatcher. *)
let answer_cheap t ~queue_wait_s (rq : Protocol.request) =
  let answer ?key ?entry served payload =
    let report = request_report ~rq_id:rq.rq_id ?key ~served ~queue_wait_s ?entry () in
    Some Protocol.{ rs_id = rq.rq_id; rs_result = Ok (payload, report) }
  in
  match rq.Protocol.rq_op with
  | Protocol.Ping ->
    count_inline t;
    answer "inline" "pong"
  | Protocol.Stats ->
    (* the payload does not count the request itself *)
    let payload = J.to_string ~indent:2 (stats_json t) ^ "\n" in
    count_inline t;
    answer "inline" payload
  | Protocol.Shutdown -> None
  | Protocol.Run q -> (
    let key = Protocol.query_key q in
    let hit =
      Mutex.protect t.e_mutex (fun () ->
          let hit = cache_find_locked t key in
          if Option.is_some hit then begin
            t.e_requests <- t.e_requests + 1;
            t.e_cached <- t.e_cached + 1
          end;
          hit)
    in
    match hit with Some e -> answer ~key ~entry:e "cached" e.en_payload | None -> None)

let answer_now t rq = answer_cheap t ~queue_wait_s:0.0 rq

let reject t ~id msg =
  Mutex.protect t.e_mutex (fun () ->
      t.e_requests <- t.e_requests + 1;
      t.e_errors <- t.e_errors + 1);
  Protocol.{ rs_id = id; rs_result = Error msg }

let enqueue t req =
  Mutex.protect t.e_mutex (fun () -> t.e_queued <- t.e_queued + 1);
  { p_req = req; p_enqueued_s = Unix.gettimeofday () }

let dequeue t = Mutex.protect t.e_mutex (fun () -> t.e_queued <- t.e_queued - 1)

let refuse t p msg =
  dequeue t;
  reject t ~id:p.p_req.Protocol.rq_id msg

(* Only this function writes [t.e_reg]; the server calls it from its
   single dispatcher thread.  A key is computed at most once while it
   stays in the response LRU: a repeat queued behind the first request
   is dispatched after the first was cached, and answered from there. *)
let execute t p =
  dequeue t;
  let rq = p.p_req in
  let queue_wait_s = Float.max 0.0 (Unix.gettimeofday () -. p.p_enqueued_s) in
  match (rq.Protocol.rq_op, answer_cheap t ~queue_wait_s rq) with
  | _, Some resp -> resp
  | Protocol.Run q, None -> (
    let key = Protocol.query_key q in
    let computed =
      Result.bind (computation ?jobs:t.e_jobs q) (fun f ->
          match with_sink t ~name:("compute:" ^ key) f with
          | Ok payload, meta -> Ok { meta with en_payload = payload }
          | Error msg, _ -> Error ("computation failed: " ^ msg))
    in
    match computed with
    | Ok e ->
      cache_add t key e;
      Mutex.protect t.e_mutex (fun () ->
          t.e_requests <- t.e_requests + 1;
          t.e_computed <- t.e_computed + 1);
      let report =
        request_report ~rq_id:rq.rq_id ~key ~served:"computed" ~queue_wait_s ~entry:e ()
      in
      Protocol.{ rs_id = rq.rq_id; rs_result = Ok (e.en_payload, report) }
    | Error msg -> reject t ~id:rq.rq_id msg)
  | _, None ->
    (* [Shutdown]: the server stops taking requests once it is queued *)
    count_inline t;
    let report = request_report ~rq_id:rq.rq_id ~served:"inline" ~queue_wait_s () in
    Protocol.{ rs_id = rq.rq_id; rs_result = Ok ("draining", report) }

(* -------------------------------------------------------------- oracle *)

let oracle q = Result.map (fun f -> f Reg.disabled) (computation ~jobs:1 q)
