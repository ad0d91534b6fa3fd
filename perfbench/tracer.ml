(* Spans recorded from the benchmark's own code around each call into a
   simbridge layer.  A span carries its parent's id and the [Gc] deltas
   of its interval; self times are derived after the run from the
   recorded events.  With tracing off every wrapper is a plain call. *)

module Reg = Telemetry.Registry
module Tr = Telemetry.Trace

type t = Reg.t

let off : t = Reg.disabled

let create () : t = Reg.create ~trace_capacity:65536 ()

(* Allocation counters of the calling domain, in words. *)
type gc = { minor : float; promoted : float; major : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; major = s.Gc.major_collections }

let gc_delta a b =
  { minor = b.minor -. a.minor; promoted = b.promoted -. a.promoted; major = b.major - a.major }

let span (t : t) name f =
  if not (Reg.enabled t) then f ()
  else begin
    let g0 = gc_now () in
    let sp = Reg.span_start t name in
    Fun.protect f ~finally:(fun () ->
        let d = gc_delta g0 (gc_now ()) in
        Reg.span_end t sp
          ~args:
            [
              ("gc_minor_words", Tr.Float d.minor);
              ("gc_promoted_words", Tr.Float d.promoted);
              ("gc_major", Tr.Int d.major);
            ]
          ())
  end

let root (t : t) name f = Reg.span_with t ~root:true name f

(* Per span name: (total seconds, self seconds, count).  A span's self
   time is its duration minus the durations of its direct children. *)
let self_times (t : t) =
  let spans =
    List.filter_map
      (fun (e : Tr.event) ->
        match (e.cat, List.assoc_opt "span" e.args, List.assoc_opt "parent" e.args) with
        | "span", Some (Tr.Str id), Some (Tr.Str parent) -> Some (e.name, id, parent, e.dur)
        | _ -> None)
      (Tr.to_list (Reg.trace t))
  in
  let child_us = Hashtbl.create 1024 in
  List.iter
    (fun (_, _, parent, dur) ->
      Hashtbl.replace child_us parent (dur + Option.value ~default:0 (Hashtbl.find_opt child_us parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (name, id, _, dur) ->
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child_us id) in
      let tot, slf, n = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name (tot + dur, slf + self, n + 1))
    spans;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | Some (tot, slf, n) -> (float_of_int tot *. 1e-6, float_of_int slf *. 1e-6, n)
    | None -> (0.0, 0.0, 0)

let dropped (t : t) = Tr.dropped (Reg.trace t)
