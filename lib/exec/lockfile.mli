(** Advisory single-writer lockfile for on-disk state directories.

    [pc sweep] takes one per checkpoint journal, so two processes
    racing for the same mutable state fail fast with a clear error
    ({!Locked}) instead of silently corrupting each other's journal
    appends and cache renames.

    The lock is an [O_CREAT|O_EXCL] file holding the owner's PID.
    {!acquire} breaks a {e stale} lock — one whose recorded PID is
    dead ([kill 0] gives [ESRCH]) or equal to the calling process
    (a holder that crashed inside this very process image, or a dead
    owner's PID recycled onto us; neither can be an independent live
    owner). A live foreign PID raises {!Locked}.

    Caveat: because a same-PID lock counts as stale, two concurrent
    holders {e inside one process} are not mutually excluded — the
    lock guards against other processes, which is what an on-disk lock
    can promise. *)

type t

exception Locked of { path : string; pid : int }
(** The lock is held by a live process. A printer is registered, so
    [Printexc.to_string] renders an actionable message. *)

val acquire : string -> t
(** Atomically create [path] (parent directories as needed) and write
    our PID. Raises {!Locked} if a live foreign process holds it;
    breaks stale locks with a logged warning. *)

val release : t -> unit
(** Remove the lock file. Never raises. *)

val path : t -> string
