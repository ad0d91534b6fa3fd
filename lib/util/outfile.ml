let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* Only a lost race (someone else created it) is benign; every other
       failure must surface here, naming the directory, instead of as a
       confusing ENOENT from the open that follows. *)
    match Unix.mkdir dir 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  end

let write ?(append = false) path contents =
  mkdir_p (Filename.dirname path);
  let mode = if append then [ Open_append ] else [ Open_trunc ] in
  Out_channel.with_open_gen (Open_wronly :: Open_creat :: Open_text :: mode) 0o666 path (fun oc ->
      Out_channel.output_string oc contents)
