open Pc_heap

(* The object-to-chunk association maintained by P_F's second stage
   (Section 4, Figure 4).

   At step i the heap is partitioned into aligned chunks of 2^i words;
   chunk k covers [k*2^i, (k+1)*2^i). Each chunk carries a set of
   associated objects — whole objects, or halves of objects whose two
   halves live on two chunks (Claim 4.15). Association survives both
   compaction (the entry stays at the old chunk while the object turns
   into a ghost) and de-allocation-by-migration of halves; it is the
   program's instrument for keeping every used chunk at density 2^-l,
   and the analysis' instrument for charging heap words (the potential
   function u, Definition 4.4, is computed from this structure). *)

type entry = { oid : Oid.t; obj_size : int; half : bool }

let entry_size e = if e.half then e.obj_size / 2 else e.obj_size

type chunk = {
  mutable entries : entry list;
  mutable sum : int; (* total entry size *)
  mutable middle : bool; (* member of the set E (Definition 4.12) *)
}

(* An object has at most two locations (two halves on two chunks, or
   one whole entry). Oids are dense, so the locations live in two
   oid-indexed slot arrays rather than a table of lists: [loc_a] holds
   the first location and [loc_b] the second, [no_loc] marks an empty
   slot, and [loc_b] is set only when [loc_a] is. [seen] is a
   generation-stamped per-oid mark for [merge_step]. *)
let no_loc = -1

type t = {
  ell : int; (* density exponent: target density 2^-ell *)
  mutable chunk_log : int; (* current chunk size is 2^chunk_log *)
  mutable chunks : (int, chunk) Hashtbl.t; (* chunk index -> state *)
  mutable loc_a : int array; (* oid -> first chunk index, or no_loc *)
  mutable loc_b : int array; (* oid -> second chunk index, or no_loc *)
  mutable seen : int array; (* oid -> last merge_step generation *)
  mutable gen : int;
}

let create ~chunk_log ~ell =
  if ell < 1 then invalid_arg "Association.create: need l >= 1";
  {
    ell;
    chunk_log;
    chunks = Hashtbl.create 256;
    loc_a = Array.make 256 no_loc;
    loc_b = Array.make 256 no_loc;
    seen = Array.make 256 0;
    gen = 0;
  }

let chunk_log t = t.chunk_log
let chunk_words t = 1 lsl t.chunk_log
let ell t = t.ell

let get_chunk t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some ch -> ch
  | None ->
      let ch = { entries = []; sum = 0; middle = false } in
      Hashtbl.add t.chunks idx ch;
      ch

let find_chunk t idx = Hashtbl.find_opt t.chunks idx
let sum t idx = match find_chunk t idx with Some ch -> ch.sum | None -> 0

let entries t idx =
  match find_chunk t idx with Some ch -> ch.entries | None -> []

let is_middle t idx =
  match find_chunk t idx with Some ch -> ch.middle | None -> false

(* First location of an oid, or [no_loc]. *)
let first_loc t o = if o < Array.length t.loc_a then t.loc_a.(o) else no_loc

let locs_of t oid =
  let o = Oid.to_int oid in
  let a = first_loc t o in
  if a = no_loc then []
  else
    let b = t.loc_b.(o) in
    if b = no_loc then [ a ] else [ a; b ]

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_loc t oid idx =
  let o = Oid.to_int oid in
  let len = Array.length t.loc_a in
  if o >= len then begin
    let n = max (o + 1) (2 * len) in
    t.loc_a <- grow t.loc_a n no_loc;
    t.loc_b <- grow t.loc_b n no_loc;
    t.seen <- grow t.seen n 0
  end;
  if t.loc_a.(o) = no_loc then t.loc_a.(o) <- idx
  else if t.loc_b.(o) = no_loc then t.loc_b.(o) <- idx
  else invalid_arg "Association: more than two locations"

(* Forget one location of an oid; a location it does not have is
   ignored. *)
let remove_loc t oid idx =
  let o = Oid.to_int oid in
  let a = first_loc t o in
  if a = no_loc then ()
  else if a = idx then begin
    t.loc_a.(o) <- t.loc_b.(o);
    t.loc_b.(o) <- no_loc
  end
  else if t.loc_b.(o) = idx then t.loc_b.(o) <- no_loc

(* The location first, so that a third location leaves the chunk
   untouched. *)
let add_entry t idx e =
  add_loc t e.oid idx;
  let ch = get_chunk t idx in
  ch.entries <- e :: ch.entries;
  ch.sum <- ch.sum + entry_size e;
  ch.middle <- false

(* Remove one entry (by oid and half-ness) from a chunk. *)
let remove_entry t idx (e : entry) =
  let ch = get_chunk t idx in
  let rec remove_once = function
    | [] -> invalid_arg "Association.remove_entry: entry not found"
    | x :: rest ->
        if Oid.equal x.oid e.oid && x.half = e.half then rest
        else x :: remove_once rest
  in
  ch.entries <- remove_once ch.entries;
  ch.sum <- ch.sum - entry_size e;
  remove_loc t e.oid idx

let assoc_whole t oid ~obj_size ~chunk =
  add_entry t chunk { oid; obj_size; half = false }

let assoc_halves t oid ~obj_size ~chunk1 ~chunk2 =
  if chunk1 = chunk2 then assoc_whole t oid ~obj_size ~chunk:chunk1
  else begin
    add_entry t chunk1 { oid; obj_size; half = true };
    add_entry t chunk2 { oid; obj_size; half = true }
  end

let set_middle t idx =
  let ch = get_chunk t idx in
  if ch.entries <> [] then
    invalid_arg "Association.set_middle: chunk has entries";
  ch.middle <- true

(* Reset a chunk for reuse by a fresh allocation (Algorithm 1 line
   14): drop every remaining entry (they are ghosts — a live object
   associated with a chunk intersects it, and a reused chunk holds no
   live words). Returns the oids that lost their last entry, i.e. the
   ghosts that cease to exist. *)
let reset_chunk t idx =
  match find_chunk t idx with
  | None -> []
  | Some ch ->
      let vanished =
        List.filter_map
          (fun e ->
            remove_loc t e.oid idx;
            if first_loc t (Oid.to_int e.oid) = no_loc then Some e.oid
            else None)
          ch.entries
      in
      ch.entries <- [];
      ch.sum <- 0;
      ch.middle <- false;
      vanished

(* Migrate a half entry out of [from_idx] to the chunk holding the
   object's other half (Algorithm 1 line 13: "when a half object is
   freed, associate it with the chunk that contains the other half").
   If both halves meet they merge into a whole entry. Returns the
   destination chunk, or [None] when no other half exists (the object
   is a ghost whose other chunk was reused): the entry then simply
   disappears, and the caller should drop the object if this was its
   last entry. *)
let migrate_half t ~from_idx (e : entry) =
  if not e.half then invalid_arg "Association.migrate_half: whole entry";
  remove_entry t from_idx e;
  let other = first_loc t (Oid.to_int e.oid) in
  if other = no_loc then None
  else begin
    (* The other half is at [other]: merge into a whole entry. *)
    remove_entry t other e;
    add_entry t other { e with half = false };
    Some other
  end

(* The entries of one pre-merge chunk as they appear in the merged
   chunk, in order. The first entry met (in [merge_step]'s visiting
   order) of an object halves both its locations, and when its two
   halves land in the same merged chunk it becomes the whole entry
   there and the object keeps one location; the second half of such a
   pair is then dropped. *)
let merged_entries t entries =
  List.filter_map
    (fun (e : entry) ->
      let o = Oid.to_int e.oid in
      if t.seen.(o) <> t.gen then begin
        t.seen.(o) <- t.gen;
        let a = t.loc_a.(o) / 2 and b = t.loc_b.(o) in
        t.loc_a.(o) <- a;
        if e.half && b <> no_loc && b / 2 = a then begin
          t.loc_b.(o) <- no_loc;
          Some { e with half = false }
        end
        else begin
          if b <> no_loc then t.loc_b.(o) <- b / 2;
          Some e
        end
      end
      else if t.loc_b.(o) = no_loc then None
      else Some e)
    entries

(* Step change (Algorithm 1 line 12): chunk size doubles, pairs of
   chunks merge, entry sets take unions; two halves of one object
   landing in the same merged chunk become a whole entry. The middle
   set E empties (Definition 4.12).

   A merged chunk lists the entries of the pre-merge chunk visited
   first, then those of the other, and a collapsed pair keeps the place
   of its first half: the entry order PF's later drops and resets
   follow. Sums are unchanged by half-merging (two halves = one
   whole). *)
let merge_step t =
  t.gen <- t.gen + 1;
  let merged = Hashtbl.create (Hashtbl.length t.chunks) in
  Hashtbl.iter
    (fun idx (ch : chunk) ->
      let nidx = idx / 2 in
      let es = merged_entries t ch.entries in
      match Hashtbl.find_opt merged nidx with
      | Some nch ->
          nch.entries <- nch.entries @ es;
          nch.sum <- nch.sum + ch.sum
      | None ->
          Hashtbl.add merged nidx
            { entries = es; sum = ch.sum; middle = false })
    t.chunks;
  t.chunks <- merged;
  t.chunk_log <- t.chunk_log + 1

let chunk_indices t = Hashtbl.fold (fun idx _ acc -> idx :: acc) t.chunks []
let chunk_count t = Hashtbl.length t.chunks

(* The potential function u(t) of Definition 4.4:
   u = sum_D u_D - n/4, with u_D = 2^i for middle chunks and
   min(2^ell * sum_D, 2^i) otherwise. In the paper n/4 is the largest
   chunk ever (the last chunk may stick out of the heap); we take the
   same deduction. *)
let potential t ~n =
  let cw = chunk_words t in
  let total = ref 0 in
  Hashtbl.iter
    (fun _ (ch : chunk) ->
      let ud =
        if ch.middle then cw
        else min ((1 lsl t.ell) * ch.sum) cw
      in
      total := !total + ud)
    t.chunks;
  !total - (n / 4)

let check_invariants t =
  Hashtbl.iter
    (fun idx (ch : chunk) ->
      let s = List.fold_left (fun acc e -> acc + entry_size e) 0 ch.entries in
      if s <> ch.sum then failwith "Association: chunk sum drift";
      if ch.middle && ch.entries <> [] then
        failwith "Association: middle chunk with entries";
      List.iter
        (fun e ->
          if not (List.mem idx (locs_of t e.oid)) then
            failwith "Association: missing loc back-reference")
        ch.entries)
    t.chunks;
  Array.iteri
    (fun o a ->
      let b = t.loc_b.(o) in
      if a = no_loc && b <> no_loc then
        failwith "Association: second location without a first";
      List.iter
        (fun idx ->
          if
            idx <> no_loc
            && not
                 (List.exists (fun e -> Oid.to_int e.oid = o) (entries t idx))
          then failwith "Association: stale loc")
        [ a; b ])
    t.loc_a
