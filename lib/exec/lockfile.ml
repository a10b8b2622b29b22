(* Advisory single-writer lock over an on-disk state directory (result
   cache + checkpoint journal).

   The lock is a file created with O_CREAT|O_EXCL — atomic on every
   POSIX filesystem — holding the owner's PID. Two concurrent writers
   racing for the same state fail fast with a clear error instead of
   silently interleaving journal appends and cache renames.

   Stale-lock detection: a holder that died without releasing (kill
   -9, power loss) leaves its PID behind; if that PID no longer names
   a live process (kill 0 -> ESRCH), or names *this* process (the
   previous holder crashed inside the same process image, or a dead
   holder's PID was recycled onto us — either way it cannot be an
   independent live owner), the lock is broken and re-acquired. A live
   foreign PID — including EPERM, a live process we may not signal —
   keeps the lock. *)

let src = Logs.Src.create "pc.lockfile" ~doc:"state-dir lockfile"

module Log = (val Logs.src_log src : Logs.LOG)

type t = { path : string; pid : int }

exception Locked of { path : string; pid : int }

let () =
  Printexc.register_printer (function
    | Locked { path; pid } ->
        Some
          (Printf.sprintf
             "lock %s is held by live process %d (two pc processes must not \
              share a state dir; stop the other one or point --cache-dir \
              elsewhere)"
             path pid)
    | _ -> None)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_pid path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | content -> int_of_string_opt (String.trim content)

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: alive, not ours *)

let try_create path =
  match Unix.openfile path Unix.[ O_CREAT; O_EXCL; O_WRONLY ] 0o644 with
  | fd ->
      let pid = Unix.getpid () in
      let line = Bytes.of_string (string_of_int pid ^ "\n") in
      ignore (Unix.write fd line 0 (Bytes.length line));
      Unix.close fd;
      Some { path; pid }
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> None

let acquire path =
  mkdir_p (Filename.dirname path);
  (* Bounded retries: breaking a stale lock and re-creating it races
     against other breakers; whoever wins the O_EXCL create owns it. *)
  let rec go tries =
    if tries = 0 then
      Fmt.failwith "lockfile %s: could not acquire (contended)" path
    else
      match try_create path with
      | Some t -> t
      | None -> (
          match read_pid path with
          | Some pid when pid <> Unix.getpid () && alive pid ->
              raise (Locked { path; pid })
          | Some pid ->
              Log.warn (fun k ->
                  k "lock %s: breaking stale lock of dead process %d" path pid);
              (try Sys.remove path with Sys_error _ -> ());
              go (tries - 1)
          | None ->
              (* Empty or garbled PID: a holder killed between create
                 and write, or the file vanished under us. Break it. *)
              (try Sys.remove path with Sys_error _ -> ());
              go (tries - 1))
  in
  go 5

let release t = try Sys.remove t.path with Sys_error _ -> ()
let path t = t.path
