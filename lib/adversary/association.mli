(** The object-to-chunk association maintained by [P_F]'s second stage
    (Section 4, Figure 4), and the potential function computed from it
    (Definition 4.4).

    At step [i] the heap splits into aligned chunks of [2{^i}] words;
    chunk [k] covers [\[k·2{^i}, (k+1)·2{^i})]. Each chunk holds a set
    of associated entries: whole objects or halves (Claim 4.15).
    Association survives compaction (entries of ghosted objects stay at
    the old chunk) and migrates on half de-allocation.

    {b Order is observable.} [P_F]'s decisions follow two orders this
    module fixes: the order of {!chunk_indices} (the chunks' hash-table
    iteration order, which depends on the table's insertion history and
    size) and the order of each chunk's {!entries}. The first decides
    the order of the density pass; the second decides which of several
    same-size entries the pass drops and the order in which
    {!reset_chunk} reports vanished objects — which fixes the order of
    the program's frees, seen by managers through [on_free]. Both are
    part of the interface: a change to either changes outcomes. *)

type entry = { oid : Pc_heap.Oid.t; obj_size : int; half : bool }

val entry_size : entry -> int
(** [obj_size], or [obj_size/2] for a half. *)

type t

val create : chunk_log:int -> ell:int -> t
(** Chunks of [2{^chunk_log}] words; target density [2{^-ell}]. *)

val chunk_log : t -> int
val chunk_words : t -> int
val ell : t -> int
val sum : t -> int -> int
(** Total entry size associated with a chunk index. *)

val entries : t -> int -> entry list
(** Most recently associated first; after {!merge_step}, the entries of
    the pre-merge chunk visited first, then the other's, a collapsed
    half pair taking the place of its first half. *)

val is_middle : t -> int -> bool
val locs_of : t -> Pc_heap.Oid.t -> int list
(** The 0, 1 or 2 chunk indices holding entries of an object, in no
    particular order. *)

val assoc_whole : t -> Pc_heap.Oid.t -> obj_size:int -> chunk:int -> unit
(** Raises [Invalid_argument "Association: more than two locations"]
    if the object already has two locations (the chunk is then left
    unchanged); so do {!assoc_halves} and {!migrate_half}. *)

val assoc_halves :
  t -> Pc_heap.Oid.t -> obj_size:int -> chunk1:int -> chunk2:int -> unit
(** Two half entries ([chunk1 = chunk2] degrades to a whole). *)

val set_middle : t -> int -> unit
(** Put a chunk into the middle set [E] (Definition 4.12). Raises
    [Invalid_argument] if the chunk still has entries — only freshly
    reused (reset) chunks can be middle. *)

val remove_entry : t -> int -> entry -> unit

val reset_chunk : t -> int -> Pc_heap.Oid.t list
(** Drop every entry of a chunk (reuse by a fresh allocation,
    Algorithm 1 line 14) and clear its middle flag. Returns the oids
    that lost their last entry — ghosts that cease to exist. *)

val migrate_half : t -> from_idx:int -> entry -> int option
(** De-allocate a half (Algorithm 1 line 13): the half moves to the
    chunk holding the object's other half, merging into a whole entry
    there; returns that chunk. [None] when no other half exists (the
    entry just disappears). *)

val merge_step : t -> unit
(** Step change (line 12): chunk size doubles, pairs merge, half-pairs
    sharing a chunk become wholes, the middle set empties. *)

val chunk_indices : t -> int list
(** Indices of chunks currently carrying state (entries or middle
    flag), in the chunk table's iteration order: deterministic for a
    given sequence of calls, and observable (see the module
    description). *)

val chunk_count : t -> int

val potential : t -> n:int -> int
(** The potential function [u] (Definition 4.4): [Σ u_D − n/4] with
    [u_D = 2{^i}] for middle chunks and [min(2{^ell}·sum_D, 2{^i})]
    otherwise. A lower bound on the heap size used so far. *)

val check_invariants : t -> unit
(** Raises [Failure] on drift; for tests. *)
