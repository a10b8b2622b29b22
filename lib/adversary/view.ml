open Pc_heap

(* The adversary's book-keeping of "live or ghost" objects.

   Algorithm 1's preamble: whenever the memory manager compacts an
   object, the program immediately de-allocates it but keeps treating
   it as a ghost residing at its original allocation address. Ghosts
   participate in all of the program's decisions until the program's
   own de-allocation procedure discards them (Definition 4.1).

   Live records always have [orig_addr] equal to their current heap
   address, because a moved object is ghosted before the program takes
   any further action. *)

type record = {
  oid : Oid.t;
  orig_addr : int;
  size : int;
  mutable ghost : bool;
}

type t = {
  driver : Driver.t;
  tbl : record Oid.Table.t;
  mutable present_words : int; (* live + ghost *)
  mutable on_ghost : (record -> unit) option;
}

let create driver =
  { driver; tbl = Oid.Table.create 1024; present_words = 0; on_ghost = None }

let set_ghost_hook t f = t.on_ghost <- Some f

let ghost t (r : record) =
  if not r.ghost then begin
    Driver.free t.driver r.oid;
    r.ghost <- true;
    match t.on_ghost with Some f -> f r | None -> ()
  end

let alloc t ~size =
  let oid, addr, moves = Driver.alloc t.driver ~size in
  let r = { oid; orig_addr = addr; size; ghost = false } in
  Oid.Table.add t.tbl oid r;
  t.present_words <- t.present_words + size;
  (* Ghost every tracked object the manager moved to serve this
     request — before the program takes any other action. *)
  List.iter
    (fun (mv : Driver.move_note) ->
      match Oid.Table.find_opt t.tbl mv.oid with
      | Some gr -> ghost t gr
      | None -> ())
    moves;
  r

(* Program-initiated de-allocation: real objects are freed on the
   heap; ghosts just disappear from the view. *)
let free t (r : record) =
  if not (Oid.Table.mem t.tbl r.oid) then
    invalid_arg "View.free: record not present";
  if not r.ghost then Driver.free t.driver r.oid;
  Oid.Table.remove t.tbl r.oid;
  t.present_words <- t.present_words - r.size

let find t oid = Oid.Table.find_opt t.tbl oid
let present_words t = t.present_words
let present_count t = Oid.Table.length t.tbl
let iter_present t f = Oid.Table.iter (fun _ r -> f r) t.tbl

let fold_present t ~init ~f =
  Oid.Table.fold (fun _ r acc -> f acc r) t.tbl init

let driver t = t.driver
let live_words t = Driver.live_words t.driver
