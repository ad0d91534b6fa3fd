(* Tests for the command-line front end's flag converters: out-of-range
   values must die at parse time with cmdliner's usage error (exit 124,
   the offending option named on stderr) rather than run an empty
   simulation or raise deep inside a workload generator.  Drives the
   built binary, which the test stanza declares as a dependency. *)

let cli = "../bin/simbridge_cli.exe"

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let rejects (flag, args) =
  Alcotest.test_case (String.concat " " args ^ " rejected") `Quick (fun () ->
      let err = Filename.temp_file "simbridge-cli" ".err" in
      let status =
        Sys.command
          (Filename.quote_command cli (args @ [ "--report"; "" ]) ~stdout:Filename.null
             ~stderr:err)
      in
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove err;
      Alcotest.(check int) "usage error" 124 status;
      Alcotest.(check bool) ("stderr names " ^ flag) true
        (contains ~needle:(Printf.sprintf "option '%s'" flag) msg))

let suite =
  List.map rejects
    [
      ("--scale", [ "workload"; "MM"; "--scale=0" ]);
      ("--scale", [ "workload"; "MM"; "--scale=-1" ]);
      ("--scale", [ "workload"; "MM"; "--scale"; "nan" ]);
      ("--scale", [ "workload"; "MM"; "--scale=inf" ]);
      ("--scale", [ "csv"; "fig1"; "--scale=0" ]);
      ("--ranks", [ "workload"; "cg"; "--ranks=-3" ]);
      ("--ranks", [ "workload"; "cg"; "--ranks"; "0" ]);
    ]
