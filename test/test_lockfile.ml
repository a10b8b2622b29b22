(* The lockfile guarding a sweep's state dir: it must refuse a live
   foreign holder and break stale ones, counting a lock that records
   our own PID as stale. *)

open Pc_exec

let fresh_dir = Helpers.fresh_dir

let test_self_stale () =
  let path = Filename.concat (fresh_dir ()) "sweep.lock" in
  let l1 = Lockfile.acquire path in
  Alcotest.(check bool) "lock file exists" true (Sys.file_exists path);
  (* Our own PID in a lock counts as stale: a previous holder in this
     process image cannot be an independent live owner. *)
  let l2 = Lockfile.acquire path in
  Lockfile.release l2;
  Alcotest.(check bool) "released" true (not (Sys.file_exists path));
  Lockfile.release l1 (* never raises, even with the file gone *)

(* A live foreign holder is refused; once it is dead and reaped, its
   lock is stale and broken. *)
let test_live_and_dead () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "sweep.lock" in
  let pid =
    Unix.create_process "sleep" [| "sleep"; "30" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (string_of_int pid ^ "\n"));
      (match Lockfile.acquire path with
      | exception Lockfile.Locked { pid = p; _ } ->
          Alcotest.(check int) "holder pid reported" pid p
      | l ->
          Lockfile.release l;
          Alcotest.fail "acquired over a live foreign holder");
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      let l = Lockfile.acquire path in
      Alcotest.(check string) "stale lock broken and reacquired" path (Lockfile.path l);
      Lockfile.release l)

let () =
  Alcotest.run "lockfile"
    [
      ( "lockfile",
        [
          Alcotest.test_case "self-stale rule" `Quick test_self_stale;
          Alcotest.test_case "live holder refused, dead holder" `Quick
            test_live_and_dead;
        ] );
    ]
