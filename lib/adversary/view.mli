(** The adversary's book-keeping of "live or ghost" objects
    (Definition 4.1).

    Objects the manager compacts are immediately de-allocated on the
    heap but kept as {i ghosts} at their original allocation address;
    they participate in the program's decisions until the program's own
    de-allocation procedure discards them. *)

type record = {
  oid : Pc_heap.Oid.t;
  orig_addr : int;  (** allocation-time address; ghosts "reside" here *)
  size : int;
  mutable ghost : bool;
}

type t

val create : Driver.t -> t

val set_ghost_hook : t -> (record -> unit) -> unit
(** Called right after a record turns into a ghost. *)

val alloc : t -> size:int -> record
(** Allocate and track; any tracked object the manager moved while
    serving the request is ghosted (freed on the heap, kept in the
    view) before this returns. *)

val free : t -> record -> unit
(** Program-initiated de-allocation: frees live records on the heap;
    ghosts just disappear from the view. *)

val find : t -> Pc_heap.Oid.t -> record option

val present_words : t -> int
(** Total size of live and ghost records. *)

val present_count : t -> int

val iter_present : t -> (record -> unit) -> unit
(** Visits records in the order of the record hash table ([Oid.Table],
    created with 1024 buckets and filled by [add] in allocation order),
    not in oid order. That order is observable: Robson's steps free
    their doomed objects in it and PF's stage 2 associates its
    survivors in it, and managers see the free order through
    [on_free]. It depends on the table's size history, so it differs
    between small and large runs. *)

val fold_present : t -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Same order as {!iter_present}. *)

val driver : t -> Driver.t
val live_words : t -> int
