(** Shared chunk-eviction machinery for compacting managers.

    Clearing an occupied window costs the total size of the objects
    intersecting it, paid from the compaction budget — the reuse cost
    at the heart of the paper's lower-bound argument. Candidate
    windows are discovered around the largest free gaps, keeping each
    attempt at [O(max_gaps · log live)]. *)

type candidate = { window_start : int; cost : int }

val window_cost : Pc_heap.Heap.t -> start:int -> size:int -> int
(** Total size of the live objects intersecting the window
    (straddlers count fully — they must be moved whole). *)

val window_candidates :
  ?max_gaps:int -> Ctx.t -> size:int -> align:int -> candidate list
(** Candidate aligned windows below the frontier, cheapest first,
    discovered around the [max_gaps] (default 64) largest gaps. *)

val relocate_first_fit :
  Ctx.t -> avoid:Pc_heap.Interval.t -> Pc_heap.Heap.obj -> int option
(** Default relocation target: lowest-addressed existing gap disjoint
    from [avoid]. *)

val try_evict :
  ?max_attempts:int ->
  ?max_gaps:int ->
  ?relocate:
    (Ctx.t -> avoid:Pc_heap.Interval.t -> Pc_heap.Heap.obj -> int option) ->
  Ctx.t ->
  size:int ->
  align:int ->
  move_cap:int ->
  int option
(** Try to clear an aligned [size]-word window by relocating its
    objects. Returns the start of the cleared window. Candidates are
    the windows costing at most [min move_cap (budget available)] on
    entry. Objects already moved when a later relocation fails stay
    moved (the heap remains valid) and may land in another candidate,
    so each window is priced again when it is tried and skipped if it
    no longer fits the budget left; at most [max_attempts] candidate
    windows are tried. *)
