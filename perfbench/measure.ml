(* Statistics, host facts and the JSON record every bench process prints. *)

module J = Validate.Jsonx

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let isum = List.fold_left ( + ) 0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set (VmHWM) of a process ("self" or a pid), in MiB. *)
let peak_rss_mib pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> Float.nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Where a run leaves its trace export and serve sockets. *)
let out_dir = ".bench_build/perfbench"

let ensure_out_dir () =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ ".bench_build"; out_dir ]

(* Operations attempted and failed, with the first few failures named. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }
let attempt t = t.attempted <- t.attempted + 1

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 20 then t.notes <- s :: t.notes)
    fmt

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* The process's record: set-up time, the tally, metrics and any extra
   fields, as one JSON line. *)
let emit ~setup_s ~t (metrics : metric list) extra =
  let num f = if Float.is_finite f then J.Num f else J.Null in
  J.Obj
    ([
       ("setup_s", num setup_s);
       ("attempted", J.Num (float_of_int t.attempted));
       ("failed", J.Num (float_of_int t.failed));
       ("notes", J.Arr (List.rev_map (fun s -> J.Str s) t.notes));
       ( "metrics",
         J.Obj
           (List.map
              (fun x -> (x.name, J.Obj [ ("value", num x.value); ("unit", J.Str x.unit) ]))
              metrics) );
     ]
    @ extra)
  |> J.to_string ~indent:0 |> print_endline
