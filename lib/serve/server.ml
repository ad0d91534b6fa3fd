type conn = {
  c_fd : Unix.file_descr;
  c_mutex : Mutex.t;  (* serializes writes and the lifecycle fields *)
  mutable c_outstanding : int;  (* queued requests awaiting their response *)
  mutable c_eof : bool;  (* reader saw EOF; close once outstanding drains *)
  mutable c_dead : bool;  (* a write failed or timed out: drop further responses *)
  mutable c_closed : bool;
}

type t = {
  s_listen : Unix.file_descr;
  s_addr : Protocol.addr;
  s_engine : Engine.t;
  s_queue : (conn * Engine.pending) Parallel.Jobq.t;
  s_stop : bool Atomic.t;
  s_max_batch : int;
  s_conns_mutex : Mutex.t;
  mutable s_conns : conn list;
  mutable s_readers : Thread.t list;
}

(* ---------------------------------------------------------- connection *)

(* A peer that leaves a response unread this long (its socket buffer
   full) is dropped, so one client that never reads cannot hold the
   dispatcher. *)
let send_timeout_s = 2.0
let max_frame_bytes = 1 lsl 20

let really_write fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let close_locked c =
  if not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(* The no-partial-frame guarantee: the frame arrives fully serialized
   (terminator included) and goes out in one locked write loop, so two
   threads' responses never interleave and a line is either fully
   written or not written at all.  The one exception is a write that
   times out: the connection is shut down there and then, so the cut
   frame is the last thing the peer sees. *)
let conn_write c line =
  Mutex.protect c.c_mutex (fun () ->
      if not (c.c_closed || c.c_dead) then
        try really_write c.c_fd line with
        | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          c.c_dead <- true;
          (* wakes the reader with EOF; the fd closes once it drains *)
          (try Unix.shutdown c.c_fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> c.c_dead <- true)

let conn_finish_one c =
  Mutex.protect c.c_mutex (fun () ->
      c.c_outstanding <- c.c_outstanding - 1;
      if c.c_eof && c.c_outstanding = 0 then close_locked c)

let conn_mark_eof c =
  Mutex.protect c.c_mutex (fun () ->
      c.c_eof <- true;
      if c.c_outstanding = 0 then close_locked c)

let send_response c resp = conn_write c (Protocol.print_response resp ^ "\n")

(* -------------------------------------------------------------- reader *)

(* A request is answered right here, on the connection's reader thread,
   when the engine can do so without computing and nothing of this
   connection is queued: only this thread adds to [c_outstanding], so at
   0 every earlier response is already written and the answer keeps the
   connection's request order. *)
let answered_now t c req =
  if Atomic.get t.s_stop || Mutex.protect c.c_mutex (fun () -> c.c_outstanding > 0) then false
  else
    match Engine.answer_now t.s_engine req with
    | Some resp ->
      send_response c resp;
      true
    | None -> false

let handle_line t c line =
  match Protocol.parse_request line with
  | Error msg -> send_response c (Engine.reject t.s_engine ~id:"" msg)
  | Ok req when answered_now t c req -> ()
  | Ok req ->
    Mutex.protect c.c_mutex (fun () -> c.c_outstanding <- c.c_outstanding + 1);
    let pending = Engine.{ p_req = req; p_enqueued_s = Unix.gettimeofday () } in
    if Parallel.Jobq.push t.s_queue (c, pending) then begin
      (* stop only after the frame is queued, so the shutdown request
         itself drains through the dispatcher and gets its response *)
      match req.Protocol.rq_op with
      | Protocol.Shutdown -> Atomic.set t.s_stop true
      | _ -> ()
    end
    else begin
      send_response c
        (Engine.reject t.s_engine ~id:req.rq_id "server is draining; request rejected");
      conn_finish_one c
    end

(* Frames are split off a fixed read chunk into [line], which never
   grows past [max_frame_bytes]: a peer sending a longer frame gets one
   error frame, and nothing more is read from it. *)
let reader t c =
  let chunk = Bytes.create 65536 in
  let line = Buffer.create 1024 in
  let frame () =
    let s = Buffer.contents line in
    Buffer.clear line;
    if String.trim s <> "" then handle_line t c s
  in
  let rec scan i n =
    if i >= n then true
    else
      let j = match Bytes.index_from_opt chunk i '\n' with Some j when j < n -> j | _ -> n in
      if Buffer.length line + (j - i) > max_frame_bytes then begin
        send_response c
          (Engine.reject t.s_engine ~id:""
             (Printf.sprintf "request frame exceeds %d bytes; closing the connection"
                max_frame_bytes));
        false
      end
      else begin
        Buffer.add_subbytes line chunk i (j - i);
        if j < n then begin
          frame ();
          scan (j + 1) n
        end
        else true
      end
  in
  let rec loop () =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> frame ()  (* a last frame may lack its newline *)
    | n -> if scan 0 n then loop ()
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  conn_mark_eof c

(* ---------------------------------------------------------- dispatcher *)

let rec chunk n = function
  | [] -> []
  | items ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let head, rest = take n [] items in
    head :: chunk n rest

let dispatch_chunk t items =
  match Engine.execute t.s_engine (List.map snd items) with
  | responses ->
    List.iter2
      (fun (c, _) resp ->
        send_response c resp;
        conn_finish_one c)
      items responses
  | exception exn ->
    (* Engine.execute converts per-request failures itself; this is the
       backstop that keeps the dispatcher alive if it ever throws. *)
    let msg = "internal error: " ^ Printexc.to_string exn in
    List.iter
      (fun (c, p) ->
        send_response c
          Protocol.{ rs_id = p.Engine.p_req.Protocol.rq_id; rs_result = Error msg };
        conn_finish_one c)
      items

let dispatcher t =
  let rec loop () =
    match Parallel.Jobq.pop_batch t.s_queue with
    | [] -> ()  (* queue closed and fully drained *)
    | batch ->
      List.iter (dispatch_chunk t) (chunk t.s_max_batch batch);
      loop ()
  in
  loop ()

(* --------------------------------------------------------------- setup *)

let bind_listen addr =
  match addr with
  | `Unix path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let ip =
      if host = "" || host = "*" then Unix.inet_addr_any
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).h_addr_list.(0)
    in
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (ip, port));
    Unix.listen fd 64;
    fd

let create ?jobs ?response_cache_capacity ?(max_batch = 64) ?telemetry addr =
  (* a client closing mid-response must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_listen addr in
  {
    s_listen = listen_fd;
    s_addr = addr;
    s_engine = Engine.create ?jobs ?response_cache_capacity ?telemetry ();
    s_queue = Parallel.Jobq.create ();
    s_stop = Atomic.make false;
    s_max_batch = max_batch;
    s_conns_mutex = Mutex.create ();
    s_conns = [];
    s_readers = [];
  }

let engine t = t.s_engine
let stop t = Atomic.set t.s_stop true
let stopped t = Atomic.get t.s_stop

let spawn_reader t fd =
  Unix.setsockopt_float fd SO_SNDTIMEO send_timeout_s;
  let c =
    {
      c_fd = fd;
      c_mutex = Mutex.create ();
      c_outstanding = 0;
      c_eof = false;
      c_dead = false;
      c_closed = false;
    }
  in
  let th = Thread.create (fun () -> reader t c) () in
  Mutex.protect t.s_conns_mutex (fun () ->
      t.s_conns <- c :: t.s_conns;
      t.s_readers <- th :: t.s_readers)

(* Drain order matters: listener first (no new connections), queue next
   (late pushes refused with a draining error), dispatcher joined (every
   queued request answered, every response fully written), and only then
   are client sockets shut down and readers joined. *)
let drain t dispatcher_thread =
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
  (match t.s_addr with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  Parallel.Jobq.close t.s_queue;
  Thread.join dispatcher_thread;
  let conns, readers =
    Mutex.protect t.s_conns_mutex (fun () -> (t.s_conns, t.s_readers))
  in
  List.iter
    (fun c ->
      Mutex.protect c.c_mutex (fun () ->
          if not c.c_closed then
            try Unix.shutdown c.c_fd SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
    conns;
  List.iter Thread.join readers;
  List.iter (fun c -> Mutex.protect c.c_mutex (fun () -> close_locked c)) conns

let run t =
  let dispatcher_thread = Thread.create dispatcher t in
  while not (Atomic.get t.s_stop) do
    match Unix.select [ t.s_listen ] [] [] 0.25 with
    | [ _ ], _, _ -> (
      match Unix.accept t.s_listen with
      | fd, _ -> spawn_reader t fd
      | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  drain t dispatcher_thread
