(* Tests for the serve subsystem: protocol round-trips (qcheck),
   malformed-frame rejection, the engine (response cache / oracle
   identity), the blocking job queue, and a real Unix-socket daemon
   exercised by concurrent clients, including a shutdown with requests
   queued that must never leave a partial frame and a queued request
   that must not wait for a later one. *)

module P = Serve.Protocol
module Engine = Serve.Engine
module J = Util.Jsonx

(* ------------------------------------------------------------- daemon *)

let with_server ?jobs f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "simbridge-test-%d-%d.sock" (Unix.getpid ()) (Hashtbl.hash f land 0xFFFF))
  in
  let srv = Serve.Server.create ?jobs (`Unix sock) in
  let th = Thread.create Serve.Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Thread.join th;
      try Unix.unlink sock with Unix.Unix_error _ -> ())
    (fun () -> f sock srv)

(* Raw connections, for tests that need to see exactly when frames
   arrive on each connection, or to send what no real client would. *)
type raw = { fd : Unix.file_descr; rbuf : Buffer.t }

let raw_connect sock =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX sock);
  { fd; rbuf = Buffer.create 4096 }

let raw_send r s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring r.fd s !off (String.length s - !off)
  done

let frames reqs = String.concat "" (List.map (fun rq -> P.print_request rq ^ "\n") reqs)

(* The next response line, or [None] once the daemon has closed the
   connection; fails the test when nothing arrives within [secs]. *)
let raw_recv ?(secs = 30.0) r =
  let deadline = Unix.gettimeofday () +. secs in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents r.rbuf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear r.rbuf;
      Buffer.add_string r.rbuf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then Alcotest.failf "no response frame within %g s" secs;
      match Unix.select [ r.fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read r.fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          Buffer.add_subbytes r.rbuf chunk 0 n;
          go ()
        | exception Unix.Unix_error (ECONNRESET, _, _) -> None))
  in
  go ()

let raw_response ?secs r =
  match raw_recv ?secs r with
  | None -> Alcotest.fail "connection closed before the response"
  | Some line -> (
    match P.parse_response line with
    | Ok resp -> resp
    | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg)

let stats_of resp =
  match resp.P.rs_result with
  | Ok (payload, _) -> (
    match J.parse payload with
    | Ok stats ->
      fun field ->
        (match Option.bind (J.member field stats) J.to_int with
        | Some n -> n
        | None -> Alcotest.failf "stats payload has no integer %S" field)
    | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg)
  | Error msg -> Alcotest.failf "stats request failed: %s" msg

(* One stats snapshot, asked over [r]; [r] must have nothing queued, so
   the daemon answers it at once. *)
let stats_over r =
  raw_send r (frames [ P.{ rq_id = "s"; rq_op = Stats } ]);
  stats_of (raw_response r)

(* Poll stats over [r] until [cond] holds of a snapshot. *)
let wait_stats r what cond =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (cond (stats_over r)) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "%s: not within 30 s" what;
    Unix.sleepf 0.002
  done

(* ------------------------------------------------------------ protocol *)

let gen_request =
  let open QCheck.Gen in
  let id = map (Printf.sprintf "r%d") small_nat in
  let name = oneofl [ "fig1"; "fig2"; "fig7"; "x"; "weird fig"; "banana-pi-sim" ] in
  let scale = oneof [ float_range 0.001 100.0; return 1.0; return 0.15; return 8.0 ] in
  let op =
    oneof
      [
        return P.Ping;
        return P.Stats;
        return P.Shutdown;
        map3 (fun fmt figure scale -> P.Run (P.Figure { fmt; figure; scale }))
          (oneofl [ `Csv; `Render ])
          name scale;
        map3
          (fun platform kernel scale -> P.Run (P.Cell { platform; kernel; scale }))
          name name scale;
      ]
  in
  map2 (fun rq_id rq_op -> P.{ rq_id; rq_op }) id op

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request print -> parse -> print is byte-identical" ~count:500
    (QCheck.make gen_request) (fun r ->
      let line = P.print_request r in
      match P.parse_request line with
      | Error msg -> QCheck.Test.fail_reportf "own frame rejected: %s" msg
      | Ok r' -> String.equal line (P.print_request r'))

let prop_request_frame_single_line =
  QCheck.Test.make ~name:"request frames never contain raw newlines" ~count:500
    (QCheck.make gen_request) (fun r -> not (String.contains (P.print_request r) '\n'))

let test_response_roundtrip () =
  let report =
    J.Obj [ ("served", J.Str "computed"); ("phases", J.Arr [ J.Obj [ ("name", J.Str "measure") ] ]) ]
  in
  let check r =
    let line = P.print_response r in
    Alcotest.(check bool) "single line" false (String.contains line '\n');
    match P.parse_response line with
    | Error msg -> Alcotest.failf "own response rejected: %s" msg
    | Ok r' -> Alcotest.(check string) "byte-identical" line (P.print_response r')
  in
  check { P.rs_id = "a"; rs_result = Ok ("x,y\n1,2\n", report) };
  check { P.rs_id = "b"; rs_result = Error "unknown figure \"fig99\"" };
  (* the answer to an unparseable frame has no id to echo *)
  check { P.rs_id = ""; rs_result = Error "malformed frame" }

let test_malformed_frames () =
  let valid =
    P.print_request
      { P.rq_id = "a"; rq_op = P.Run (P.Figure { fmt = `Csv; figure = "fig1"; scale = 1.0 }) }
  in
  let reject what line =
    match P.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should have been rejected: %s" what line
  in
  reject "truncated frame" (String.sub valid 0 (String.length valid - 5));
  reject "non-JSON" "hello there";
  reject "empty line" "";
  reject "non-object" "[1,2,3]";
  reject "missing schema" {|{"id":"x","op":"ping"}|};
  reject "wrong schema version" {|{"schema":"simbridge-serve/2","id":"x","op":"ping"}|};
  reject "missing id" {|{"schema":"simbridge-serve/1","op":"ping"}|};
  reject "empty id" {|{"schema":"simbridge-serve/1","id":"","op":"ping"}|};
  reject "unknown op" {|{"schema":"simbridge-serve/1","id":"x","op":"dance"}|};
  reject "csv without figure" {|{"schema":"simbridge-serve/1","id":"x","op":"csv"}|};
  reject "negative scale"
    {|{"schema":"simbridge-serve/1","id":"x","op":"csv","figure":"fig1","scale":-1}|};
  reject "zero scale"
    {|{"schema":"simbridge-serve/1","id":"x","op":"csv","figure":"fig1","scale":0}|};
  reject "string scale"
    {|{"schema":"simbridge-serve/1","id":"x","op":"csv","figure":"fig1","scale":"big"}|};
  reject "cell without kernel"
    {|{"schema":"simbridge-serve/1","id":"x","op":"cell","platform":"banana-pi-sim"}|};
  (* the wrong-schema error must say what the server does speak *)
  (match P.parse_request {|{"schema":"bogus/9","id":"x","op":"ping"}|} with
  | Error msg ->
    let has_needle needle =
      let n = String.length needle and l = String.length msg in
      let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "names the supported schema" true (has_needle P.schema)
  | Ok _ -> Alcotest.fail "bogus schema accepted");
  (* scale defaults to 1.0 when absent *)
  (match P.parse_request {|{"schema":"simbridge-serve/1","id":"x","op":"csv","figure":"fig1"}|} with
  | Ok { P.rq_op = P.Run (P.Figure { scale; _ }); _ } ->
    Alcotest.(check (float 0.0)) "default scale" 1.0 scale
  | _ -> Alcotest.fail "frame without scale should parse");
  (* the daemon answers a malformed frame with an error and counts it *)
  with_server ~jobs:1 (fun sock _srv ->
      let r = raw_connect sock in
      raw_send r "hello there\n";
      let resp = raw_response r in
      Alcotest.(check string) "error frame carries no id" "" resp.P.rs_id;
      Alcotest.(check bool) "error frame" true (Result.is_error resp.P.rs_result);
      let stat = stats_over r in
      Alcotest.(check int) "malformed frame counted as a request" 1 (stat "requests");
      Alcotest.(check int) "malformed frame counted as an error" 1 (stat "errors");
      Unix.close r.fd)

let test_addr_parsing () =
  Alcotest.(check bool) "bare path" true (P.addr_of_string "/tmp/x.sock" = Ok (`Unix "/tmp/x.sock"));
  Alcotest.(check bool) "unix: prefix" true (P.addr_of_string "unix:x.sock" = Ok (`Unix "x.sock"));
  Alcotest.(check bool) "tcp" true (P.addr_of_string "tcp:localhost:7007" = Ok (`Tcp ("localhost", 7007)));
  Alcotest.(check bool) "bad port" true (Result.is_error (P.addr_of_string "tcp:localhost:banana"));
  Alcotest.(check bool) "no port" true (Result.is_error (P.addr_of_string "tcp:localhost"));
  Alcotest.(check bool) "empty" true (Result.is_error (P.addr_of_string ""));
  List.iter
    (fun a ->
      match P.addr_of_string (P.addr_to_string a) with
      | Ok a' -> Alcotest.(check bool) "addr round-trips" true (a = a')
      | Error msg -> Alcotest.failf "addr round-trip failed: %s" msg)
    [ `Unix "/tmp/y.sock"; `Tcp ("127.0.0.1", 9) ]

(* ---------------------------------------------------------------- jobq *)

let test_jobq_order_and_close () =
  let q = Parallel.Jobq.create () in
  let pop () = Parallel.Jobq.pop q in
  List.iter (fun i -> Alcotest.(check bool) "push accepted" true (Parallel.Jobq.push q i)) [ 1; 2; 3 ];
  Alcotest.(check (list (option int))) "pops in push order" [ Some 1; Some 2; Some 3 ]
    (List.init 3 (fun _ -> pop ()));
  ignore (Parallel.Jobq.push q 4);
  Parallel.Jobq.close q;
  Alcotest.(check bool) "push after close refused" false (Parallel.Jobq.push q 5);
  Alcotest.(check (option int)) "queued items survive close" (Some 4) (pop ());
  Alcotest.(check (option int)) "closed+empty returns None" None (pop ())

let test_jobq_blocking_consumer () =
  let q = Parallel.Jobq.create () in
  let got = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Parallel.Jobq.pop q with
          | None -> ()
          | Some item ->
            got := !got @ [ item ];
            loop ()
        in
        loop ())
      ()
  in
  List.iter
    (fun i ->
      Thread.yield ();
      ignore (Parallel.Jobq.push q i))
    [ 10; 20; 30 ];
  (* close wakes the blocked consumer once everything is drained *)
  Unix.sleepf 0.02;
  Parallel.Jobq.close q;
  Thread.join consumer;
  Alcotest.(check (list int)) "consumer saw every item in order" [ 10; 20; 30 ] !got

(* -------------------------------------------------------------- engine *)

(* ED1 (length-1 int dependency chain) at tiny scale: the cheapest real
   simulation cell, so engine tests stay fast. *)
let cellq ?(scale = 0.02) () = P.Cell { platform = "banana-pi-sim"; kernel = "ED1"; scale }

let mk_pending e id q = Engine.enqueue e P.{ rq_id = id; rq_op = Run q }

let served_of resp =
  match resp.P.rs_result with
  | Error msg -> Alcotest.failf "unexpected error response: %s" msg
  | Ok (_, report) -> (
    match J.member "served" report with
    | Some (J.Str s) -> s
    | _ -> Alcotest.fail "report has no served field")

let payload_of resp =
  match resp.P.rs_result with
  | Error msg -> Alcotest.failf "unexpected error response: %s" msg
  | Ok (payload, _) -> payload

let test_engine_repeat_key_cached () =
  let e = Engine.create ~jobs:1 () in
  let q = cellq () in
  let ra = Engine.execute e (mk_pending e "a" q) in
  let rb = Engine.execute e (mk_pending e "b" q) in
  let rc = Engine.execute e (mk_pending e "c" (cellq ~scale:0.03 ())) in
  Alcotest.(check string) "ids echoed" "a,b,c"
    (String.concat "," [ ra.P.rs_id; rb.P.rs_id; rc.P.rs_id ]);
  Alcotest.(check string) "first request computed" "computed" (served_of ra);
  Alcotest.(check string) "repeated key cached" "cached" (served_of rb);
  Alcotest.(check string) "distinct key computed" "computed" (served_of rc);
  (match Engine.oracle q with
  | Ok expect -> Alcotest.(check string) "cached payload = sequential oracle" expect (payload_of rb)
  | Error msg -> Alcotest.failf "oracle failed: %s" msg);
  let stat =
    stats_of (Engine.execute e (Engine.enqueue e P.{ rq_id = "s"; rq_op = Stats }))
  in
  Alcotest.(check int) "each key computed once" 2 (stat "computed");
  Alcotest.(check int) "one cached answer" 1 (stat "cached");
  Alcotest.(check int) "four requests counted" 4 (Engine.requests_served e)

let test_engine_errors_and_inline () =
  let e = Engine.create ~jobs:1 () in
  let bad_fig = P.Figure { fmt = `Csv; figure = "fig99"; scale = 1.0 } in
  let bad_cell = P.Cell { platform = "banana-pi-sim"; kernel = "NOPE"; scale = 1.0 } in
  let op id rq_op = Engine.execute e (Engine.enqueue e P.{ rq_id = id; rq_op }) in
  let rf = Engine.execute e (mk_pending e "f" bad_fig) in
  let rc = Engine.execute e (mk_pending e "c" bad_cell) in
  let rp = op "p" Ping in
  let rs = op "s" Stats in
  (match rf.P.rs_result with
  | Error msg -> Alcotest.(check bool) "unknown figure named" true
      (String.length msg > 0 && String.sub msg 0 14 = "unknown figure")
  | Ok _ -> Alcotest.fail "fig99 should fail");
  Alcotest.(check bool) "unknown kernel errors" true (Result.is_error rc.P.rs_result);
  Alcotest.(check string) "ping answers pong" "pong" (payload_of rp);
  Alcotest.(check string) "ping served inline" "inline" (served_of rp);
  (match J.parse (payload_of rs) with
  | Ok stats ->
    Alcotest.(check bool) "stats payload is JSON with schema" true
      (J.member "schema" stats = Some (J.Str "simbridge-serve-stats/1"))
  | Error msg -> Alcotest.failf "stats payload unparseable: %s" msg);
  Alcotest.(check int) "both failures counted as errors" 2 (stats_of rs "errors")

let test_engine_figure_oracle_identity () =
  (* the headline contract, in-process: a served figure payload is
     byte-identical to the one-shot CSV at a different jobs setting *)
  let e = Engine.create ~jobs:2 () in
  let q = P.Figure { fmt = `Csv; figure = "fig1"; scale = 0.05 } in
  let r = Engine.execute e (mk_pending e "x" q) in
  match Engine.oracle q with
  | Ok expect -> Alcotest.(check string) "served fig1 = sequential oracle" expect (payload_of r)
  | Error msg -> Alcotest.failf "oracle failed: %s" msg

(* -------------------------------------------------------------- server *)

let test_server_concurrent_clients () =
  with_server ~jobs:1 (fun sock _srv ->
      let q = cellq () in
      let expect = match Engine.oracle q with Ok p -> p | Error m -> Alcotest.fail m in
      let run_client tag =
        let c = Serve.Client.connect (`Unix sock) in
        let r1 = Serve.Client.rpc c P.{ rq_id = tag ^ "-cell"; rq_op = Run q } in
        let r2 = Serve.Client.rpc c P.{ rq_id = tag ^ "-ping"; rq_op = Ping } in
        Serve.Client.close c;
        (r1, r2)
      in
      let results = Array.make 2 None in
      let threads =
        List.init 2 (fun i ->
            Thread.create (fun () -> results.(i) <- Some (run_client (string_of_int i))) ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok { P.rs_result = Ok (payload, _); _ }, Ok { P.rs_result = Ok (pong, _); _ })
            ->
            Alcotest.(check string) (Printf.sprintf "client %d payload" i) expect payload;
            Alcotest.(check string) (Printf.sprintf "client %d pong" i) "pong" pong
          | _ -> Alcotest.failf "client %d did not get clean responses" i)
        results)

let test_server_drain_no_partial_frames () =
  (* pipeline several distinct computations, then a shutdown frame: the
     daemon must answer every request before closing the socket, and
     every byte received must form complete newline-terminated frames *)
  with_server ~jobs:1 (fun sock srv ->
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX sock);
      let send line = ignore (Unix.write_substring fd line 0 (String.length line)) in
      let n_cells = 5 in
      for i = 0 to n_cells - 1 do
        send
          (P.print_request
             P.{
                 rq_id = Printf.sprintf "q%d" i;
                 rq_op = Run (cellq ~scale:(0.01 +. (0.005 *. float_of_int i)) ());
               }
          ^ "\n")
      done;
      send (P.print_request P.{ rq_id = "bye"; rq_op = Shutdown } ^ "\n");
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
      in
      drain ();
      Unix.close fd;
      let data = Buffer.contents buf in
      Alcotest.(check bool) "stream ends on a frame boundary" true
        (String.length data > 0 && data.[String.length data - 1] = '\n');
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' data) in
      Alcotest.(check int) "every request answered before EOF" (n_cells + 1) (List.length lines);
      List.iteri
        (fun i line ->
          match P.parse_response line with
          | Ok resp ->
            let expect = if i < n_cells then Printf.sprintf "q%d" i else "bye" in
            Alcotest.(check string) "responses in request order" expect resp.P.rs_id
          | Error msg -> Alcotest.failf "partial or garbled frame %S: %s" line msg)
        lines;
      (* the shutdown frame stopped the daemon; run returns on its own *)
      Alcotest.(check bool) "server stopping" true (Serve.Server.stopped srv))

(* A cell that computes for about a second: long next to the daemon's
   thread hand-offs, and no other test computes it. *)
let long_cellq = P.Cell { platform = "banana-pi-sim"; kernel = "MIP"; scale = 3.0 }

let queue_wait_of resp =
  match resp.P.rs_result with
  | Ok (_, report) -> (
    match J.member "queue_wait_s" report with
    | Some (J.Num w) -> w
    | _ -> Alcotest.fail "report has no queue_wait_s")
  | Error msg -> Alcotest.failf "unexpected error response: %s" msg

let test_fast_path_skips_cold_compute () =
  (* connection B's cached query and ping are answered on B's reader
     thread while the dispatcher is still computing A's cold cell *)
  with_server ~jobs:1 (fun sock _srv ->
      let hot = cellq () in
      let b = raw_connect sock in
      raw_send b (frames [ P.{ rq_id = "warm"; rq_op = Run hot } ]);
      Alcotest.(check string) "warm-up computed" "computed" (served_of (raw_response b));
      let a = raw_connect sock in
      raw_send a (frames [ P.{ rq_id = "cold"; rq_op = Run long_cellq } ]);
      Unix.sleepf 0.05;
      raw_send b (frames [ P.{ rq_id = "hot"; rq_op = Run hot }; P.{ rq_id = "ping"; rq_op = Ping } ]);
      let r_hot = raw_response b in
      let r_ping = raw_response b in
      let a_waiting = match Unix.select [ a.fd ] [] [] 0.0 with [], _, _ -> true | _ -> false in
      Alcotest.(check bool) "B answered before A's cold cell" true a_waiting;
      Alcotest.(check string) "hot ids in order" "hot,ping" (r_hot.P.rs_id ^ "," ^ r_ping.P.rs_id);
      Alcotest.(check string) "hot query cached" "cached" (served_of r_hot);
      Alcotest.(check (float 0.0)) "no queue wait" 0.0 (queue_wait_of r_hot);
      Alcotest.(check string) "ping inline" "inline" (served_of r_ping);
      (match Engine.oracle hot with
      | Ok expect -> Alcotest.(check string) "cached payload = oracle" expect (payload_of r_hot)
      | Error msg -> Alcotest.failf "oracle failed: %s" msg);
      let r_cold = raw_response a in
      Alcotest.(check string) "A's cell computed" "computed" (served_of r_cold);
      List.iter (fun r -> Unix.close r.fd) [ a; b ])

let test_fast_path_keeps_connection_order () =
  (* a cached query pipelined behind a cold one on the same connection
     waits its turn in the dispatcher *)
  with_server ~jobs:1 (fun sock _srv ->
      let hot = cellq () in
      let r = raw_connect sock in
      raw_send r (frames [ P.{ rq_id = "warm"; rq_op = Run hot } ]);
      ignore (raw_response r);
      raw_send r
        (frames
           [
             P.{ rq_id = "cold"; rq_op = Run (cellq ~scale:0.05 ()) };
             P.{ rq_id = "hot"; rq_op = Run hot };
             P.{ rq_id = "ping"; rq_op = Ping };
           ]);
      let got = List.init 3 (fun _ -> raw_response r) in
      Alcotest.(check (list string)) "responses in request order" [ "cold"; "hot"; "ping" ]
        (List.map (fun resp -> resp.P.rs_id) got);
      Alcotest.(check (list string)) "served markers" [ "computed"; "cached"; "inline" ]
        (List.map served_of got);
      Unix.close r.fd)

let test_fast_path_counted () =
  with_server ~jobs:1 (fun sock srv ->
      let c = Serve.Client.connect (`Unix sock) in
      let rpc id rq_op =
        match Serve.Client.rpc c P.{ rq_id = id; rq_op } with
        | Ok resp -> resp
        | Error msg -> Alcotest.failf "%s: %s" id msg
      in
      Alcotest.(check string) "first computed" "computed" (served_of (rpc "a" (Run (cellq ()))));
      Alcotest.(check string) "then cached" "cached" (served_of (rpc "b" (Run (cellq ()))));
      Alcotest.(check string) "ping inline" "inline" (served_of (rpc "p" Ping));
      let stat = stats_of (rpc "s" Stats) in
      Alcotest.(check int) "requests" 3 (stat "requests");
      Alcotest.(check int) "computed" 1 (stat "computed");
      Alcotest.(check int) "cached" 1 (stat "cached");
      Alcotest.(check int) "inline" 1 (stat "inline");
      (* the drain summary reads this; the stats request counts too *)
      Alcotest.(check int) "requests served" 4
        (Engine.requests_served (Serve.Server.engine srv));
      Serve.Client.close c)

let test_queued_cell_not_late () =
  (* While connection 0's cold figure occupies the dispatcher, connection
     1 queues a cold cell and then connection 2 a slower cold figure.
     The cell is answered as soon as it is computed: a stats request
     sent right after its answer sees the figure still computing.  Stats
     go over connection 3, which has nothing queued, so they are always
     answered at once; on connection 1 a stats request could still queue
     behind the later figure if it arrived before the dispatcher had
     retired the cell. *)
  with_server ~jobs:1 (fun sock _srv ->
      let c0 = raw_connect sock and c1 = raw_connect sock and c2 = raw_connect sock in
      let c3 = raw_connect sock in
      Fun.protect ~finally:(fun () -> List.iter (fun r -> Unix.close r.fd) [ c0; c1; c2; c3 ])
      @@ fun () ->
      let stat field = stats_over c3 field in
      let fig id figure scale = P.{ rq_id = id; rq_op = Run (Figure { fmt = `Csv; figure; scale }) } in
      raw_send c0 (frames [ fig "busy" "fig6" 0.1 ]);
      (* The busy figure is computing before anything queues behind it. *)
      wait_stats c3 "busy figure started" (fun st -> st "running" = 1);
      raw_send c1 (frames [ P.{ rq_id = "cell"; rq_op = Run (cellq ~scale:0.04 ()) } ]);
      (* The slow figure is sent only once the cell has reached the
         daemon's queue.  From its start on, the busy figure adds 1 to
         queued + running + computed (running, then computed), and the
         cell adds 1 from the moment it is queued.  A snapshot taken
         between two of those steps reads one less, and the poll goes
         on. *)
      wait_stats c3 "cell queued" (fun st -> st "queued" + st "running" + st "computed" >= 2);
      raw_send c2 (frames [ fig "slow" "fig6" 0.2 ]);
      Alcotest.(check string) "cell computed" "computed" (served_of (raw_response c1));
      Alcotest.(check int) "cell answered before the later figure was computed" 2 (stat "computed");
      Alcotest.(check string) "busy figure computed" "computed" (served_of (raw_response c0));
      Alcotest.(check string) "slow figure computed" "computed" (served_of (raw_response c2)))

(* While connection A's cold query computes, connection B makes 20
   sequential ping -> stats round trips, and every one is answered
   before A's query finishes: the computation yields the runtime lock
   between replay slices (a cell) or batches of horizon advances (an
   app figure), so B's reader thread never waits for the 50 ms systhread
   tick.  At two ticks a round trip, the 20 would take about a second. *)
let round_trips_beside_cold sock cold =
  let a = raw_connect sock and b = raw_connect sock in
  Fun.protect ~finally:(fun () -> List.iter (fun r -> Unix.close r.fd) [ a; b ]) @@ fun () ->
  raw_send a (frames [ P.{ rq_id = "cold"; rq_op = Run cold } ]);
  wait_stats b "cold query started" (fun st -> st "running" = 1);
  let last = ref (stats_over b) in
  for i = 1 to 20 do
    raw_send b (frames [ P.{ rq_id = "p"; rq_op = Ping } ]);
    Alcotest.(check string) (Printf.sprintf "ping %d" i) "pong" (payload_of (raw_response b));
    last := stats_over b
  done;
  Alcotest.(check int) "the cold query still running after 20 round trips" 1 (!last "running");
  Alcotest.(check string) "cold query computed" "computed" (served_of (raw_response a))

let test_round_trips_beside_cold_cell () =
  with_server ~jobs:1 (fun sock _srv ->
      (* Compiling a trace does not yield yet: warm the trace cache with
         the same kernel and scale on another platform first, so the
         cold cell below is replay only (about 0.5 s, dev build). *)
      let warm = raw_connect sock in
      let warm_cell = P.Cell { platform = "banana-pi-hw"; kernel = "MIP"; scale = 3.0 } in
      raw_send warm (frames [ P.{ rq_id = "warm"; rq_op = Run warm_cell } ]);
      Alcotest.(check string) "warm-up computed" "computed" (served_of (raw_response warm));
      Unix.close warm.fd;
      round_trips_beside_cold sock (P.Cell { platform = "milkv-sim"; kernel = "MIP"; scale = 3.0 }))

let test_round_trips_beside_cold_figure () =
  with_server ~jobs:1 (fun sock _srv ->
      round_trips_beside_cold sock (P.Figure { fmt = `Csv; figure = "fig6"; scale = 0.5 }))

let test_non_reading_client () =
  (* A queues a cold cell and thousands of pings, and never reads: once
     its socket buffer is full the dispatcher must drop A, not block *)
  with_server ~jobs:1 (fun sock _srv ->
      let a = raw_connect sock and b = raw_connect sock in
      (* closing A on failure unblocks a dispatcher stuck writing to it *)
      Fun.protect ~finally:(fun () -> List.iter (fun r -> Unix.close r.fd) [ a; b ])
      @@ fun () ->
      (* long enough a computation that every ping queues behind it *)
      let cold = P.Cell { platform = "rocket2"; kernel = "MIP"; scale = 3.0 } in
      let pings = List.init 5000 (fun i -> P.{ rq_id = Printf.sprintf "p%d" i; rq_op = Ping }) in
      raw_send a (frames (P.{ rq_id = "cold"; rq_op = Run cold } :: pings));
      raw_send b (frames [ P.{ rq_id = "b"; rq_op = Run (cellq ()) } ]);
      let resp = raw_response ~secs:(10.0 *. Serve.Server.send_timeout_s) b in
      Alcotest.(check string) "B's cell answered" "computed" (served_of resp);
      (* B's cell may have been queued among A's pings, and answered
         before A's buffer filled.  A second cell, queued once all of A's
         frames are, is answered only after the dispatcher is past every
         ping; reading A before that would make A a reading client. *)
      raw_send b (frames [ P.{ rq_id = "b2"; rq_op = Run (cellq ~scale:0.03 ()) } ]);
      let resp = raw_response ~secs:(10.0 *. Serve.Server.send_timeout_s) b in
      Alcotest.(check string) "B's second cell answered" "computed" (served_of resp);
      (* A was disconnected: its stream ends well short of 5001 frames *)
      let rec frames_until_eof n =
        match raw_recv ~secs:(5.0 *. Serve.Server.send_timeout_s) a with
        | None -> n
        | Some _ -> frames_until_eof (n + 1)
      in
      let got = frames_until_eof 0 in
      Alcotest.(check bool) (Printf.sprintf "A cut off (%d frames)" got) true (got < 5001))

let test_oversized_frame () =
  with_server ~jobs:1 (fun sock _srv ->
      let a = raw_connect sock in
      raw_send a (String.make (Serve.Server.max_frame_bytes + 1000) 'x');
      let resp = raw_response a in
      Alcotest.(check bool) "one error frame" true (Result.is_error resp.P.rs_result);
      Alcotest.(check bool) "then the connection closes" true (raw_recv a = None);
      let b = raw_connect sock in
      let stat = stats_over b in
      Alcotest.(check int) "oversized frame counted as an error" 1 (stat "errors");
      List.iter (fun r -> Unix.close r.fd) [ a; b ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_frame_single_line;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "malformed frames rejected" `Quick test_malformed_frames;
    Alcotest.test_case "endpoint address parsing" `Quick test_addr_parsing;
    Alcotest.test_case "jobq order and close" `Quick test_jobq_order_and_close;
    Alcotest.test_case "jobq blocking consumer" `Quick test_jobq_blocking_consumer;
    Alcotest.test_case "engine repeated key answered from cache" `Quick test_engine_repeat_key_cached;
    Alcotest.test_case "engine errors and inline ops" `Quick test_engine_errors_and_inline;
    Alcotest.test_case "served figure = sequential oracle" `Slow test_engine_figure_oracle_identity;
    Alcotest.test_case "unix-socket daemon, concurrent clients" `Quick
      test_server_concurrent_clients;
    Alcotest.test_case "shutdown with requests queued: no partial frame" `Quick
      test_server_drain_no_partial_frames;
    Alcotest.test_case "cached and ping answered beside a cold compute" `Quick
      test_fast_path_skips_cold_compute;
    Alcotest.test_case "cached behind cold keeps connection order" `Quick
      test_fast_path_keeps_connection_order;
    Alcotest.test_case "fast-path answers counted in stats" `Quick test_fast_path_counted;
    Alcotest.test_case "queued cell not held back by a later figure" `Quick
      test_queued_cell_not_late;
    Alcotest.test_case "non-reading client does not stall others" `Quick test_non_reading_client;
    Alcotest.test_case "round trips answered while a cold cell replays" `Quick
      test_round_trips_beside_cold_cell;
    Alcotest.test_case "round trips answered while a cold figure computes" `Quick
      test_round_trips_beside_cold_figure;
    Alcotest.test_case "oversized frame rejected and closed" `Quick test_oversized_frame;
  ]
