(* Temporary directories for tests that write to disk: created fresh and
   removed, with everything in them, when the test ends — also when it
   fails. *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)
