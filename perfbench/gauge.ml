(* Host speed, read from the gauge process (calib.ml).

   On a shared host, co-tenants slow everything that runs, in phases of
   seconds to minutes: on a 2-vCPU VM the same simulator work took up to
   1.7 times as long in one ten-second stretch as in another.  That
   noise is not the program's.  So a run asks the gauge, a separate
   process on the same CPU, to time its fixed computation at regular
   intervals between measured operations, and scales each host time it
   reports by [reference_s] over the median gauge sample of the few
   seconds around it: times are reported at the host speed at which one
   gauge sample takes [reference_s].  The gauge shares no code and no
   heap with the simulator, so a change to the simulator moves the
   scaled times as it moves the raw ones. *)

let now = Unix.gettimeofday

(* A gauge sample's median time on a 2-vCPU VM in its fast phases. *)
let reference_s = 1e-3

(* Samples are grouped by the second they were taken in; a time is
   scaled by the median of its second and the two around it. *)
type t = {
  pid : int;
  requests : out_channel;
  replies : in_channel;
  t0 : float;
  seconds : (int, float list) Hashtbl.t;
  mutable all : float list;
}

let exe () = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe"

(* Run [f] with a gauge process, which is stopped on every way out. *)
let with_gauge f =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process (exe ()) [| exe () |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  let g =
    {
      pid;
      requests = Unix.out_channel_of_descr req_w;
      replies = Unix.in_channel_of_descr rep_r;
      t0 = now ();
      seconds = Hashtbl.create 64;
      all = [];
    }
  in
  let finally () =
    close_out_noerr g.requests;
    close_in_noerr g.replies;
    ignore (Unix.waitpid [] g.pid)
  in
  Fun.protect ~finally (fun () -> f g)

let second g at = int_of_float (Float.max 0.0 (at -. g.t0))

(* Take [n] samples now. *)
let sample ?(n = 1) g =
  Printf.fprintf g.requests "%d\n%!" n;
  let xs = List.map float_of_string (String.split_on_char ' ' (input_line g.replies)) in
  let s = second g (now ()) in
  Hashtbl.replace g.seconds s (List.rev_append xs (Option.value ~default:[] (Hashtbl.find_opt g.seconds s)));
  g.all <- List.rev_append xs g.all

(* How many times slower than the reference the host ran around [at];
   the whole run's median where fewer than 5 samples lie near [at]. *)
let slowdown g at =
  let s = second g at in
  let near =
    List.concat_map (fun d -> Option.value ~default:[] (Hashtbl.find_opt g.seconds (s + d))) [ -1; 0; 1 ]
  in
  Measure.median (if List.length near >= 5 then near else g.all) /. reference_s

(* The run's median slowdown. *)
let overall g = Measure.median g.all /. reference_s

(* Host seconds measured around [at], at the reference speed. *)
let scale g ~at secs = secs /. slowdown g at

(* Set-up's host seconds, scaled by samples taken right after it. *)
let scale_setup secs = with_gauge (fun g -> sample ~n:40 g; secs /. overall g)
