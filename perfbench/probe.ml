(* Layer probes. Everything here wraps or replays the public interfaces
   of the simulator from the outside; nothing is instrumented inside the
   program. *)

open Pc_heap
open Pc_manager

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* Calls [hook] with the execution's heap on the manager's first
   placement request, before the heap has seen any event (the first
   event of every execution is the [Alloc] that request places). *)
let observe hook inner =
  let attached = ref false in
  Manager.make ~name:(Manager.name inner)
    ~description:(Manager.description inner)
    ~on_free:(Manager.on_free inner)
    (fun ctx ~size ->
      if not !attached then begin
        attached := true;
        hook (Ctx.heap ctx)
      end;
      Manager.alloc inner ctx ~size)

let count_events counter =
  observe (fun heap -> Heap.on_event heap (fun _ -> incr counter))

(* ------------------------------------------------------------------ *)
(* Timed manager                                                      *)

type clock = {
  mutable alloc_calls : int;
  mutable alloc_ns : int;
  mutable free_calls : int;
  mutable free_ns : int;
}

let clock () = { alloc_calls = 0; alloc_ns = 0; free_calls = 0; free_ns = 0 }

let timed clock inner =
  Manager.make ~name:(Manager.name inner)
    ~description:(Manager.description inner)
    ~on_free:(fun ctx obj ->
      let t0 = now_ns () in
      Manager.on_free inner ctx obj;
      clock.free_ns <- clock.free_ns + (now_ns () - t0);
      clock.free_calls <- clock.free_calls + 1)
    (fun ctx ~size ->
      let t0 = now_ns () in
      let addr = Manager.alloc inner ctx ~size in
      clock.alloc_ns <- clock.alloc_ns + (now_ns () - t0);
      clock.alloc_calls <- clock.alloc_calls + 1;
      addr)

(* ------------------------------------------------------------------ *)
(* Recorded event streams                                             *)

(* A heap event stream decoded into flat arrays, so a replay loop does
   no decoding, hashing or allocation of its own. Event [i] is
   [kind.(i)] on object [oid.(i)] of [size.(i)] words at [addr.(i)]
   (the source of a move) with [dst.(i)] the destination of a move.
   Oids are the recording heap's, which numbers objects densely from 0
   in creation order. Runs of consecutive move events and of
   consecutive alloc/free events alternate; [seg] holds their
   boundaries so a replay reads the clock once per run, not per
   event. *)
type stream = {
  kind : Bytes.t;
  oid : int array;
  addr : int array;
  dst : int array;
  size : int array;
  len : int;
  allocs : int;
  frees : int;
  moves : int;
  moved_words : int;
  seg : int array;  (** [seg.(k)..seg.(k+1)-1] is one run *)
}

let k_alloc = 'a'
let k_free = 'f'
let k_move = 'm'

type recorder = {
  mutable r_kind : Bytes.t;
  mutable r_oid : int array;
  mutable r_addr : int array;
  mutable r_dst : int array;
  mutable r_size : int array;
  mutable r_len : int;
}

let grow r =
  let cap = 2 * Array.length r.r_oid in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  r.r_kind <- Bytes.extend r.r_kind 0 (cap - Bytes.length r.r_kind);
  r.r_oid <- extend r.r_oid;
  r.r_addr <- extend r.r_addr;
  r.r_dst <- extend r.r_dst;
  r.r_size <- extend r.r_size

let push r kind oid addr dst size =
  if r.r_len = Array.length r.r_oid then grow r;
  let i = r.r_len in
  Bytes.set r.r_kind i kind;
  r.r_oid.(i) <- Oid.to_int oid;
  r.r_addr.(i) <- addr;
  r.r_dst.(i) <- dst;
  r.r_size.(i) <- size;
  r.r_len <- i + 1

(* A recorder: a manager wrapper that records the execution's event
   stream, and a function that yields the decoded stream once the run is
   over. *)
let recording () =
  let cap = 1024 in
  let r =
    {
      r_kind = Bytes.make cap ' ';
      r_oid = Array.make cap 0;
      r_addr = Array.make cap 0;
      r_dst = Array.make cap 0;
      r_size = Array.make cap 0;
      r_len = 0;
    }
  in
  let listen (e : Heap.event) =
    match e with
    | Alloc o -> push r k_alloc o.oid o.addr 0 o.size
    | Free o -> push r k_free o.oid o.addr 0 o.size
    | Move { oid; size; src; dst } -> push r k_move oid src dst size
  in
  let finish () =
    let len = r.r_len in
    let kind = Bytes.sub r.r_kind 0 len in
    let count k =
      let n = ref 0 in
      Bytes.iter (fun c -> if c = k then incr n) kind;
      !n
    in
    let moved_words = ref 0 in
    let seg = ref [ len ] in
    for i = len - 1 downto 0 do
      if Bytes.get kind i = k_move then
        moved_words := !moved_words + r.r_size.(i);
      if i = 0 || (Bytes.get kind i = k_move) <> (Bytes.get kind (i - 1) = k_move)
      then seg := i :: !seg
    done;
    {
      kind;
      oid = Array.sub r.r_oid 0 len;
      addr = Array.sub r.r_addr 0 len;
      dst = Array.sub r.r_dst 0 len;
      size = Array.sub r.r_size 0 len;
      len;
      allocs = count k_alloc;
      frees = count k_free;
      moves = count k_move;
      moved_words = !moved_words;
      seg = Array.of_list (if len = 0 then [ 0 ] else !seg);
    }
  in
  (observe (fun heap -> Heap.on_event heap listen), finish)

(* ------------------------------------------------------------------ *)
(* Replays                                                            *)

type replay = {
  heap : Heap.t;
  alloc_free_ns : int;  (** time in runs of alloc/free events *)
  move_ns : int;  (** time in runs of move events *)
  minor_words : float;
}

let objects s =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    if Bytes.get s.kind i = k_alloc then n := max !n (s.oid.(i) + 1)
  done;
  !n

(* Replays [s] through [Heap.alloc]/[free]/[move] on a fresh heap. *)
let replay_heap ?backend s =
  let heap = Heap.create ?backend () in
  let oids = Array.make (objects s) (Oid.of_int 0) in
  let af = ref 0 and mv = ref 0 in
  let w0 = Gc.minor_words () in
  for k = 0 to Array.length s.seg - 2 do
    let lo = s.seg.(k) and hi = s.seg.(k + 1) in
    let t0 = now_ns () in
    for i = lo to hi - 1 do
      let c = Bytes.unsafe_get s.kind i in
      if c = k_alloc then
        oids.(s.oid.(i)) <- Heap.alloc heap ~addr:s.addr.(i) ~size:s.size.(i)
      else if c = k_free then Heap.free heap oids.(s.oid.(i))
      else Heap.move heap oids.(s.oid.(i)) ~dst:s.dst.(i)
    done;
    let dt = now_ns () - t0 in
    if lo < hi && Bytes.get s.kind lo = k_move then mv := !mv + dt
    else af := !af + dt
  done;
  let minor_words = Gc.minor_words () -. w0 in
  { heap; alloc_free_ns = !af; move_ns = !mv; minor_words }

(* Replays [s] as [occupy]/[release] calls on a bare free index;
   returns the index and the seconds taken. *)
let replay_free_index s =
  let fi = Free_index.create () in
  let t0 = now_ns () in
  for i = 0 to s.len - 1 do
    let c = Bytes.unsafe_get s.kind i in
    if c = k_alloc then Free_index.occupy fi ~addr:s.addr.(i) ~len:s.size.(i)
    else if c = k_free then Free_index.release fi ~addr:s.addr.(i) ~len:s.size.(i)
    else begin
      Free_index.release fi ~addr:s.addr.(i) ~len:s.size.(i);
      Free_index.occupy fi ~addr:s.dst.(i) ~len:s.size.(i)
    end
  done;
  (fi, secs (now_ns () - t0))

exception Diverged of string

(* A manager that performs no policy work: it answers every placement
   request with the recorded address, after replaying the recorded
   moves that preceded it. Driving the same program against it
   reproduces the recorded execution, so its wall time is the
   adversary plus the substrate, without the policy. Managers only
   move objects while serving an allocation ([Driver.alloc] reports moves
   to the program only there), so every recorded move precedes an
   [Alloc]. *)
let replayer ~name s =
  let cur = ref 0 in
  let expect k what =
    if !cur >= s.len || Bytes.get s.kind !cur <> k then
      raise (Diverged (Printf.sprintf "event %d: expected %s" !cur what))
  in
  Manager.make ~name
    ~on_free:(fun _ _ ->
      expect k_free "a free";
      incr cur)
    (fun ctx ~size ->
      let heap = Ctx.heap ctx in
      while !cur < s.len && Bytes.get s.kind !cur = k_move do
        Heap.move heap (Oid.of_int s.oid.(!cur)) ~dst:s.dst.(!cur);
        incr cur
      done;
      expect k_alloc "an alloc";
      if s.size.(!cur) <> size then
        raise (Diverged (Printf.sprintf "event %d: size mismatch" !cur));
      let addr = s.addr.(!cur) in
      incr cur;
      addr)
