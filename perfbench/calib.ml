(* The host-speed gauge: a fixed computation, timed on request.

     calib.exe      reads a count N per line on standard input and
                    answers each with one line of N sample times, in
                    seconds

   It links only the standard library and unix, so its code and its heap
   settings are the same whatever version of simbridge the harness runs;
   perfbench/gauge.ml starts it and reads it. *)

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

module IM = Map.Make (Int)

let tags = Array.make 4096 (-1)
let h = Hashtbl.create 1024

(* Cache-tag probes with hash-table updates, then ordered-map look-ups
   and inserts: branchy, allocating code like the simulator's.  Of the
   fixed computations tried, these two tracked the simulator's host
   speed best (perfbench/README.md). *)
let work () =
  Array.fill tags 0 4096 (-1);
  Hashtbl.reset h;
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to 20_000 do
    x := lcg !x;
    let addr = !x lsr 6 in
    let set = addr land 4095 in
    if tags.(set) = addr lsr 12 then incr acc else tags.(set) <- addr lsr 12;
    if i land 7 = 0 then Hashtbl.replace h (addr land 2047) (i, addr)
  done;
  let m = ref IM.empty in
  for _ = 1 to 2_000 do
    x := lcg !x;
    let k = !x land 1023 in
    (match IM.find_opt k !m with Some v -> acc := !acc + v | None -> ());
    m := IM.add k !x !m
  done;
  !acc + Hashtbl.length h

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

let () =
  try
    while true do
      let n = int_of_string (input_line stdin) in
      print_endline (String.concat " " (List.init n (fun _ -> Printf.sprintf "%.9f" (time ()))))
    done
  with End_of_file -> ()
