(* The simbridge benchmark harness.

   One process runs one workload and prints one JSON record as its last
   line of standard output:

     bench.exe run   WORKLOAD --seed N --seconds S --trace 0|1 [--spawned-at T] [--cli EXE]
     bench.exe setup WORKLOAD --seed N [--spawned-at T] [--cli EXE]
     bench.exe regen                      (rewrites perfbench/reference.json)

   [run] sets the workload up, then measures warm passes for S seconds
   (--trace 0) or runs the traced layer breakdown (--trace 1).  [setup]
   only sets the workload up, so set-up can be timed several times per
   run.  [--spawned-at] is the wall-clock instant the process was
   started, so set-up time covers process start too; [--cli] is the
   simbridge executable serve-hol runs as its daemon.  Every simulated
   result is checked against perfbench/reference.json and, where the
   repository holds one, against the golden CSV in results/.  Run it
   from the repository root; perfbench/run.py builds and drives it. *)

let usage () =
  prerr_endline
    "usage: bench.exe (run|setup) WORKLOAD --seed N [--seconds S] [--trace 0|1] [--spawned-at T] \
     [--cli EXE]\n\
    \       bench.exe regen\n\
     workloads: micro-trace apps-mpi serve-hol";
  exit 2

(* Recompute perfbench/reference.json from the current model.  Run it
   only when a change is meant to move simulated results. *)
let regen () =
  let sections =
    List.map Batch_run.reference_section [ Cells.micro_trace (); Cells.apps_mpi () ]
    @ [ Serve_hol.reference_section () ]
  in
  let doc = Measure.J.to_string (Measure.J.Obj sections) ^ "\n" in
  Out_channel.with_open_bin Cells.reference_path (fun oc -> output_string oc doc)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec find name default = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> find name default rest
    | [] -> default
  in
  let opt name default = find name default args in
  match args with
  | [ "regen" ] -> regen ()
  | mode :: workload :: _ when mode = "run" || mode = "setup" -> (
    let seed = int_of_string (opt "--seed" "1") in
    let seconds = float_of_string (opt "--seconds" "10") in
    let trace = opt "--trace" "0" = "1" in
    let spawned_at = float_of_string (opt "--spawned-at" (string_of_float (Measure.now ()))) in
    let cli = opt "--cli" "_build/default/bin/simbridge_cli.exe" in
    match (workload, Cells.batch_of_name workload) with
    | _, Some b when mode = "setup" ->
      Batch_run.set_up b;
      Measure.emit ~setup_s:(Gauge.scale_setup (Measure.now () -. spawned_at)) ~t:(Measure.tally ()) [] []
    | _, Some b when trace -> Batch_run.run_traced ~spawned_at ~seed b
    | _, Some b -> Batch_run.run ~spawned_at ~seed ~seconds b
    | "serve-hol", None when mode = "setup" -> Serve_hol.setup ~cli
    | "serve-hol", None -> Serve_hol.run ~cli ~seed ~seconds ~trace
    | _ -> usage ())
  | _ -> usage ()
