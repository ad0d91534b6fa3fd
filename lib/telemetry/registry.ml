type counter = { c_live : bool; mutable c_v : int }

type histogram = {
  h_live : bool;
  mutable h_buf : float array;
  mutable h_n : int;
}

type hist_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

type phase_info = {
  ph_name : string;
  ph_ts0 : int;
  ph_ts1 : int;
  ph_wall_s : float;
}

type t = {
  live : bool;
  counters_tbl : (string, counter) Hashtbl.t;
  hists_tbl : (string, histogram) Hashtbl.t;
  mutable phases_rev : phase_info list;
  tr : Trace.t;
  span_ns : string;  (** id namespace, e.g. ["c3."] for cell 3's sink *)
  span_parent : string;  (** cross-sink parent id inherited at fork *)
  mutable span_seq : int;
  mutable span_stack : string list;  (** open span ids, innermost first *)
  mutable span_lane : int;  (** worker lane, becomes the trace [tid] *)
}

let create_ns ~ns ~span_parent ?(trace_capacity = 65536) () =
  {
    live = true;
    counters_tbl = Hashtbl.create 64;
    hists_tbl = Hashtbl.create 16;
    phases_rev = [];
    tr = Trace.create ~capacity:trace_capacity;
    span_ns = ns;
    span_parent;
    span_seq = 0;
    span_stack = [];
    span_lane = 0;
  }

let create ?trace_capacity () = create_ns ~ns:"" ~span_parent:"" ?trace_capacity ()

(* The shared sink.  Nothing may ever mutate it: [counter]/[histogram]
   hand out unregistered dead cells instead of touching the tables. *)
let disabled =
  {
    live = false;
    counters_tbl = Hashtbl.create 1;
    hists_tbl = Hashtbl.create 1;
    phases_rev = [];
    tr = Trace.create ~capacity:0;
    span_ns = "";
    span_parent = "";
    span_seq = 0;
    span_stack = [];
    span_lane = 0;
  }

let enabled t = t.live
let trace t = t.tr

(* ------------------------------------------------------------ counters *)

let counter t name =
  if not t.live then { c_live = false; c_v = 0 }
  else
    match Hashtbl.find_opt t.counters_tbl name with
    | Some c -> c
    | None ->
      let c = { c_live = true; c_v = 0 } in
      Hashtbl.add t.counters_tbl name c;
      c

let incr c = c.c_v <- c.c_v + 1
let add c n = c.c_v <- c.c_v + n
let set c v = c.c_v <- v
let value c = c.c_v
let set_all t kvs = List.iter (fun (name, v) -> set (counter t name) v) kvs

let counters t =
  Hashtbl.fold (fun name c acc -> (name, c.c_v) :: acc) t.counters_tbl []
  |> List.sort compare

let find_counter t name = Option.map (fun c -> c.c_v) (Hashtbl.find_opt t.counters_tbl name)

(* ---------------------------------------------------------- histograms *)

let histogram t name =
  if not t.live then { h_live = false; h_buf = [||]; h_n = 0 }
  else
    match Hashtbl.find_opt t.hists_tbl name with
    | Some h -> h
    | None ->
      let h = { h_live = true; h_buf = [||]; h_n = 0 } in
      Hashtbl.add t.hists_tbl name h;
      h

let observe h x =
  if h.h_live then begin
    let cap = Array.length h.h_buf in
    if h.h_n = cap then begin
      let grown = Array.make (max 64 (2 * cap)) 0.0 in
      Array.blit h.h_buf 0 grown 0 h.h_n;
      h.h_buf <- grown
    end;
    h.h_buf.(h.h_n) <- x;
    h.h_n <- h.h_n + 1
  end

let hist_stats h =
  if h.h_n = 0 then invalid_arg "Registry.hist_stats: empty histogram";
  let xs = Array.sub h.h_buf 0 h.h_n in
  let lo, hi = Util.Stats.min_max xs in
  {
    count = h.h_n;
    sum = Util.Stats.sum xs;
    mean = Util.Stats.mean xs;
    min = lo;
    max = hi;
    p50 = Util.Stats.percentile xs 50.0;
    p95 = Util.Stats.percentile xs 95.0;
  }

let histograms t =
  Hashtbl.fold
    (fun name h acc -> if h.h_n = 0 then acc else (name, hist_stats h) :: acc)
    t.hists_tbl []
  |> List.sort compare

(* -------------------------------------------------------------- phases *)

type phase = { p_name : string; p_ts0 : int; p_wall0 : float }

let phase_start t ?(ts = 0) name =
  { p_name = name; p_ts0 = ts; p_wall0 = (if t.live then Unix.gettimeofday () else 0.0) }

let phase_end t p ?(ts = 0) ?(args = []) () =
  if t.live then begin
    let wall = Unix.gettimeofday () -. p.p_wall0 in
    t.phases_rev <-
      { ph_name = p.p_name; ph_ts0 = p.p_ts0; ph_ts1 = ts; ph_wall_s = wall } :: t.phases_rev;
    Trace.record t.tr
      {
        Trace.name = p.p_name;
        cat = "phase";
        ph = 'X';
        ts = p.p_ts0;
        dur = max 0 (ts - p.p_ts0);
        tid = 0;
        args;
      }
  end

let phases t = List.rev t.phases_rev

(* -------------------------------------------------------------- spans *)

(* Span timestamps are wall microseconds since this process-global
   epoch, so events recorded by different forked sinks (one per cell,
   running on different domains) land on one comparable timeline and
   the merged Chrome trace shows the real fan-out schedule. *)
let span_epoch = Unix.gettimeofday ()

type span = {
  s_live : bool;
  s_id : string;
  s_name : string;
  s_parent : string;
  s_wall0 : float;
}

let dead_span = { s_live = false; s_id = ""; s_name = ""; s_parent = ""; s_wall0 = 0.0 }

let span_current t =
  match t.span_stack with
  | id :: _ -> id
  | [] -> t.span_parent

let set_span_lane t lane = if t.live then t.span_lane <- lane

let span_start t ?(root = false) name =
  if not t.live then dead_span
  else
    let parent = span_current t in
    if (not root) && parent = "" then dead_span
    else begin
      t.span_seq <- t.span_seq + 1;
      let id = Printf.sprintf "%ss%d" t.span_ns t.span_seq in
      t.span_stack <- id :: t.span_stack;
      { s_live = true; s_id = id; s_name = name; s_parent = parent; s_wall0 = Unix.gettimeofday () }
    end

let span_id sp = sp.s_id

let span_end t sp ?(args = []) () =
  if sp.s_live then begin
    (match t.span_stack with
    | id :: rest when id = sp.s_id -> t.span_stack <- rest
    | _ -> () (* mismatched close: tolerate, the trace still records the span *));
    let now = Unix.gettimeofday () in
    Trace.record t.tr
      {
        Trace.name = sp.s_name;
        cat = "span";
        ph = 'X';
        ts = int_of_float ((sp.s_wall0 -. span_epoch) *. 1e6);
        dur = max 0 (int_of_float ((now -. sp.s_wall0) *. 1e6));
        tid = t.span_lane;
        args = ("span", Trace.Str sp.s_id) :: ("parent", Trace.Str sp.s_parent) :: args;
      }
  end

let span_with t ?root ?(args = []) name f =
  let sp = span_start t ?root name in
  Fun.protect ~finally:(fun () -> span_end t sp ~args ()) f

(* ------------------------------------------------------- fork / merge *)

let fork ?(ns = "") ?span_parent t =
  if not t.live then disabled
  else
    let span_parent = match span_parent with Some p -> p | None -> span_current t in
    create_ns ~ns:(t.span_ns ^ ns) ~span_parent ~trace_capacity:(Trace.capacity t.tr) ()

let merge ~into child =
  if into.live && child.live && into != child then begin
    (* [counters child] is name-sorted, so creation order in [into] is
       deterministic regardless of how the child populated its tables. *)
    List.iter (fun (name, v) -> add (counter into name) v) (counters child);
    Hashtbl.fold (fun name h acc -> (name, h) :: acc) child.hists_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, h) ->
           let target = histogram into name in
           for i = 0 to h.h_n - 1 do
             observe target h.h_buf.(i)
           done);
    (* phases_rev is newest-first; prepending the child's list keeps the
       merged completion order "parent's phases, then the child's". *)
    into.phases_rev <- child.phases_rev @ into.phases_rev;
    Trace.append ~into:into.tr child.tr
  end
