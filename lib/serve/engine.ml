module J = Validate.Jsonx
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
  e_engine : Runner.engine;
  e_reg : Reg.t;
  e_cache_cap : int;
  e_started_s : float;
  e_mutex : Mutex.t;  (* guards the LRU and the counters below *)
  mutable e_cache : (string * entry) list;  (* MRU first *)
  mutable e_seq : int;
  mutable e_batches : int;
  mutable e_requests : int;
  mutable e_computed : int;
  mutable e_coalesced : int;
  mutable e_cached : int;
  mutable e_inline : int;
  mutable e_errors : int;
}

type pending = { p_req : Protocol.request; p_enqueued_s : float }

let create ?jobs ?(engine : Runner.engine = `Trace) ?(response_cache_capacity = 64)
    ?(telemetry = Reg.disabled) () =
  let jobs = match jobs with Some 0 | None -> None | Some j -> Some j in
  (* A memoized daemon shares block costs for its whole lifetime, exactly
     like the trace cache: later requests inherit measured costs and skip
     straight to fast-forwarding. *)
  if engine = `Memo then Runner.enable_memo_sharing ();
  {
    e_jobs = jobs;
    e_engine = engine;
    e_reg = telemetry;
    e_cache_cap = response_cache_capacity;
    e_started_s = Unix.gettimeofday ();
    e_mutex = Mutex.create ();
    e_cache = [];
    e_seq = 0;
    e_batches = 0;
    e_requests = 0;
    e_computed = 0;
    e_coalesced = 0;
    e_cached = 0;
    e_inline = 0;
    e_errors = 0;
  }

(* ------------------------------------------------------- response LRU *)

(* Caller holds [e_mutex]. *)
let cache_find_locked t key =
  match List.assoc_opt key t.e_cache with
  | None -> None
  | Some e ->
    t.e_cache <- (key, e) :: List.filter (fun (k, _) -> k <> key) t.e_cache;
    Some e

let cache_find t key = Mutex.protect t.e_mutex (fun () -> cache_find_locked t key)

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

(* Run [f] against a private forked sink under a fresh span, returning
   its result plus the computation metadata (wall, phases, trace-cache
   delta, span id).  The sink is merged into the daemon registry
   whether or not [f] raises, so partial telemetry is never lost. *)
let with_sink t ~batch_span ~name f =
  let seq = t.e_seq in
  t.e_seq <- seq + 1;
  let sink = Reg.fork ~ns:(Printf.sprintf "q%d." seq) ~span_parent:batch_span t.e_reg in
  let tc0 = Runner.trace_cache_stats () in
  let w0 = Unix.gettimeofday () in
  let sp = Reg.span_start sink ~root:true name in
  let res = try Ok (f sink) with exn -> Error (Printexc.to_string exn) in
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
        ( "phases",
          J.Arr
            (List.map
               (fun (p : Ledger.Run_report.phase_row) ->
                 J.Obj
                   [
                     ("name", J.Str p.pr_name);
                     ("count", num_i p.pr_count);
                     ("target_cycles", num_i p.pr_target_cycles);
                     ("wall_s", J.Num p.pr_wall_s);
                   ])
               e.en_phases) );
        ( "trace_cache",
          J.Obj
            [
              ("hits", num_i e.en_tc.tc_hits);
              ("misses", num_i e.en_tc.tc_misses);
              ("evictions", num_i e.en_tc.tc_evictions);
            ] );
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
          ("batches", num_i t.e_batches);
          ("requests", num_i t.e_requests);
          ("computed", num_i t.e_computed);
          ("coalesced", num_i t.e_coalesced);
          ("cached", num_i t.e_cached);
          ("inline", num_i t.e_inline);
          ("errors", num_i t.e_errors);
          ( "response_cache",
            J.Obj
              [ ("size", num_i (List.length t.e_cache)); ("capacity", num_i t.e_cache_cap) ] );
          ( "trace_cache",
            J.Obj
              [
                ("hits", num_i tc.tc_hits);
                ("misses", num_i tc.tc_misses);
                ("evictions", num_i tc.tc_evictions);
              ] );
          ("jobs", (match t.e_jobs with None -> J.Null | Some j -> num_i j));
          ( "engine",
            J.Str (match t.e_engine with `Trace -> "trace" | `Seq -> "seq" | `Memo -> "memo") );
          ( "memo_table",
            match Runner.memo_table_stats () with
            | None -> J.Null
            | Some (entries, seeded, merged) ->
              J.Obj
                [
                  ("entries", num_i entries); ("seeded", num_i seeded); ("merged", num_i merged);
                ] );
        ])

let requests_served t = Mutex.protect t.e_mutex (fun () -> t.e_requests)

(* ----------------------------------------------------------- fast path *)

(* The shared state touched here is the LRU and the counters, both under
   [e_mutex]; the registry is not, so any thread may call this while
   [execute] runs on the dispatcher. *)
let answer_now t (rq : Protocol.request) =
  let answer ?key ?entry served payload =
    let report = request_report ~rq_id:rq.rq_id ?key ~served ~queue_wait_s:0.0 ?entry () in
    Some Protocol.{ rs_id = rq.rq_id; rs_result = Ok (payload, report) }
  in
  let count_inline () =
    Mutex.protect t.e_mutex (fun () ->
        t.e_requests <- t.e_requests + 1;
        t.e_inline <- t.e_inline + 1)
  in
  match rq.Protocol.rq_op with
  | Protocol.Ping ->
    count_inline ();
    answer "inline" "pong"
  | Protocol.Stats ->
    (* as in a batch, the payload does not count the request itself *)
    let payload = J.to_string ~indent:2 (stats_json t) ^ "\n" in
    count_inline ();
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

let reject t ~id msg =
  Mutex.protect t.e_mutex (fun () ->
      t.e_requests <- t.e_requests + 1;
      t.e_errors <- t.e_errors + 1);
  Protocol.{ rs_id = id; rs_result = Error msg }

(* ------------------------------------------------------------- execute *)

(* A batch runs in three passes: (1) dedup [Run] requests by canonical
   key and satisfy what the response LRU already holds; (2) compute the
   remainder — figures one computation each, cells coalesced into one
   pool dispatch per scale; (3) answer every pending in arrival order.
   Only this function writes [t.e_reg]; the server calls it from its
   single dispatcher thread. *)
let execute t pendings =
  let dispatch_s = Unix.gettimeofday () in
  let bsp = Reg.span_start t.e_reg ~root:true "serve:batch" in
  let batch_span = Reg.span_id bsp in
  (* pass 1: unique keys in first-arrival order *)
  let first = Hashtbl.create 16 in
  let uniq = ref [] in
  List.iteri
    (fun i p ->
      match p.p_req.Protocol.rq_op with
      | Protocol.Run q ->
        let key = Protocol.query_key q in
        if not (Hashtbl.mem first key) then begin
          Hashtbl.add first key i;
          uniq := (key, q) :: !uniq
        end
      | _ -> ())
    pendings;
  let uniq = List.rev !uniq in
  let resolved : (string, (entry, string) result) Hashtbl.t = Hashtbl.create 16 in
  let from_cache = Hashtbl.create 16 in
  let to_compute =
    List.filter
      (fun (key, _) ->
        match cache_find t key with
        | Some e ->
          Hashtbl.replace resolved key (Ok e);
          Hashtbl.replace from_cache key ();
          false
        | None -> true)
      uniq
  in
  (* validate, splitting figure computations from coalescable cells *)
  let figures = ref [] and cells = ref [] in
  List.iter
    (fun (key, q) ->
      match q with
      | Protocol.Figure { fmt; figure; scale } ->
        if List.mem figure Experiments.figure_ids then
          figures := (key, fmt, figure, scale) :: !figures
        else Hashtbl.replace resolved key (Error (unknown_figure figure))
      | Protocol.Cell { platform; kernel; scale } -> (
        match lookup_cell platform kernel with
        | Ok (cfg, k) -> cells := (key, cfg, k, scale) :: !cells
        | Error msg -> Hashtbl.replace resolved key (Error msg)))
    to_compute;
  let figures = List.rev !figures and cells = List.rev !cells in
  (* pass 2a: figures, one computation per unique key *)
  List.iter
    (fun (key, fmt, figure, scale) ->
      let res, meta =
        with_sink t ~batch_span ~name:("compute:" ^ key) (fun sink ->
            match
              Experiments.figure_by_id ?jobs:t.e_jobs ~scale ~engine:t.e_engine ~telemetry:sink
                figure
            with
            | Some fig -> figure_payload fmt fig
            | None -> failwith (unknown_figure figure))
      in
      match res with
      | Ok payload ->
        let e = { meta with en_payload = payload } in
        Hashtbl.replace resolved key (Ok e);
        cache_add t key e
      | Error msg -> Hashtbl.replace resolved key (Error ("computation failed: " ^ msg)))
    figures;
  (* pass 2b: cells, one pool dispatch per scale *)
  let scales =
    List.fold_left
      (fun acc (_, _, _, scale) -> if List.mem scale acc then acc else scale :: acc)
      [] cells
    |> List.rev
  in
  List.iter
    (fun scale ->
      let group = List.filter (fun (_, _, _, s) -> s = scale) cells in
      let res, meta =
        with_sink t ~batch_span ~name:(Printf.sprintf "compute:cells@%h" scale) (fun sink ->
            let grid = List.map (fun (_, cfg, k, _) -> (cfg, k)) group in
            Runner.run_kernel_grid ?jobs:t.e_jobs ~scale ~engine:t.e_engine ~telemetry:sink grid)
      in
      match res with
      | Ok timeds ->
        List.iter2
          (fun (key, cfg, k, _) timed ->
            let e = { meta with en_payload = cell_payload cfg k scale timed } in
            Hashtbl.replace resolved key (Ok e);
            cache_add t key e)
          group timeds
      | Error msg ->
        List.iter
          (fun (key, _, _, _) ->
            Hashtbl.replace resolved key (Error ("computation failed: " ^ msg)))
          group)
    scales;
  (* pass 3: answer in arrival order *)
  let computed = ref 0 and coalesced = ref 0 and cached = ref 0 in
  let inline = ref 0 and errors = ref 0 in
  let responses =
    List.mapi
      (fun i p ->
        let rq = p.p_req in
        let queue_wait_s = Float.max 0.0 (dispatch_s -. p.p_enqueued_s) in
        let inline_ok payload =
          incr inline;
          Ok (payload, request_report ~rq_id:rq.Protocol.rq_id ~served:"inline" ~queue_wait_s ())
        in
        let rs_result =
          match rq.Protocol.rq_op with
          | Protocol.Ping -> inline_ok "pong"
          | Protocol.Stats -> inline_ok (J.to_string ~indent:2 (stats_json t) ^ "\n")
          | Protocol.Shutdown -> inline_ok "draining"
          | Protocol.Run q -> (
            let key = Protocol.query_key q in
            match Hashtbl.find resolved key with
            | Error msg ->
              incr errors;
              Error msg
            | Ok e ->
              let served =
                if Hashtbl.find first key <> i then begin
                  incr coalesced;
                  "coalesced"
                end
                else if Hashtbl.mem from_cache key then begin
                  incr cached;
                  "cached"
                end
                else begin
                  incr computed;
                  "computed"
                end
              in
              Ok
                ( e.en_payload,
                  request_report ~rq_id:rq.Protocol.rq_id ~key ~served ~queue_wait_s ~entry:e ()
                ))
        in
        Protocol.{ rs_id = rq.rq_id; rs_result })
      pendings
  in
  Reg.span_end t.e_reg bsp ();
  Mutex.protect t.e_mutex (fun () ->
      t.e_batches <- t.e_batches + 1;
      t.e_requests <- t.e_requests + List.length pendings;
      t.e_computed <- t.e_computed + !computed;
      t.e_coalesced <- t.e_coalesced + !coalesced;
      t.e_cached <- t.e_cached + !cached;
      t.e_inline <- t.e_inline + !inline;
      t.e_errors <- t.e_errors + !errors);
  responses

(* -------------------------------------------------------------- oracle *)

let oracle (q : Protocol.query) =
  match q with
  | Protocol.Figure { fmt; figure; scale } -> (
    match Experiments.figure_by_id ~scale ~jobs:1 figure with
    | Some fig -> Ok (figure_payload fmt fig)
    | None -> Error (unknown_figure figure))
  | Protocol.Cell { platform; kernel; scale } -> (
    match lookup_cell platform kernel with
    | Error msg -> Error msg
    | Ok (cfg, k) -> (
      match Runner.run_kernel_grid ~scale ~jobs:1 [ (cfg, k) ] with
      | [ timed ] -> Ok (cell_payload cfg k scale timed)
      | _ -> Error "internal: grid arity mismatch"))
