open Pc_heap

(* Shared chunk-eviction machinery for compacting managers.

   To reuse an occupied region, a manager must relocate every live
   object intersecting it, paying the objects' sizes out of the
   compaction budget. This is exactly the reuse the paper's program PF
   is engineered to make expensive: PF keeps every chunk at density
   >= 2^-l > 1/c, so each reuse costs more budget than the triggering
   allocation recharges.

   Candidate windows are derived from the largest free gaps rather
   than from a scan of all live objects: a window that is cheap to
   clear is mostly free, so it overlaps one of the big gaps. This
   keeps each eviction attempt at O(max_gaps * log live) instead of
   O(live). *)

let src = Logs.Src.create "pc.evict" ~doc:"window eviction decisions"

module Log = (val Logs.src_log src : Logs.LOG)

type candidate = { window_start : int; cost : int }

(* Telemetry: how much window-scanning the compacting managers do and
   how often it pays off. The window-cost distribution is only
   sampled at the [Full] level. *)
module T = Pc_telemetry

let candidates_c = T.Registry.counter "evict.candidates_scanned"
let attempts_c = T.Registry.counter "evict.attempts"
let cleared_c = T.Registry.counter "evict.windows_cleared"
let evicted_words_c = T.Registry.counter "evict.evicted_words"
let window_cost_h = T.Registry.histogram "evict.window_cost"

(* Cost of clearing the aligned [size]-word window at [start]: total
   size of the live objects intersecting it (straddlers count fully —
   they must be moved whole). *)
let window_cost heap ~start ~size =
  Heap.fold_objects_in heap ~start ~stop:(start + size) ~init:0
    ~f:(fun acc (o : Heap.obj) -> acc + o.size)

(* Candidate [align]-aligned [size]-word windows below the frontier,
   cheapest first, discovered around the [max_gaps] largest gaps;
   windows costing more than [cost_cap] are left out.

   This runs on every heap-growing allocation of the compacting
   managers, so it must not allocate per considered window. *)
let candidates_capped ?(max_gaps = 64) ~cost_cap ctx ~size ~align =
  let heap = Ctx.heap ctx in
  let free = Ctx.free_index ctx in
  let frontier = Free_index.frontier free in
  let cands = ref [] in
  (* The same few windows surface from many gaps; an O(1)
     generation-stamped dedup beats rescanning the candidate list on
     every hit. *)
  let gen = ctx.Ctx.scratch_gen + 1 in
  ctx.Ctx.scratch_gen <- gen;
  (* The frontier creeps up a few words at a time: grow geometrically,
     or every growth step re-allocates the whole array. *)
  let need = (frontier / align) + 2 in
  let len = Array.length ctx.Ctx.scratch in
  if len < need then
    ctx.Ctx.scratch <- Array.make (max need (max 1024 (2 * len))) 0;
  let seen = ctx.Ctx.scratch in
  let consider w =
    if w >= 0 && Array.unsafe_get seen w <> gen then begin
      Array.unsafe_set seen w gen;
      let start = w * align in
      if start + size <= frontier then begin
        let cost =
          Heap.clear_cost heap ~start ~stop:(start + size) ~cap:cost_cap
        in
        if !T.Sink.active then begin
          T.Counter.incr candidates_c;
          if !T.Sink.full_active then T.Histogram.observe window_cost_h cost
        end;
        if cost <= cost_cap then
          cands := { window_start = start; cost } :: !cands
      end
    end
  in
  (* Two divisions per inspected gap add up; managers align windows to
     powers of two, so shift instead when possible. *)
  let ashift =
    if align > 0 && align land (align - 1) = 0 then begin
      let s = ref 0 in
      while 1 lsl !s < align do
        incr s
      done;
      !s
    end
    else -1
  in
  let wof = if ashift >= 0 then fun a -> a lsr ashift else fun a -> a / align in
  Free_index.iter_largest_gaps free ~k:max_gaps (fun gs gl ->
      (* Windows overlapping this gap; a bounded number per gap. *)
      let w0 = wof gs and w1 = wof (gs + gl - 1) in
      let wlimit = min w1 (w0 + 3) in
      for w = w0 to wlimit do
        consider w
      done;
      if w1 > wlimit then consider w1);
  match !cands with
  | ([] | [ _ ]) as l -> l
  | l ->
      List.sort
        (fun a b ->
          match Int.compare a.cost b.cost with
          | 0 -> Int.compare a.window_start b.window_start
          | c -> c)
        l

let window_candidates ?max_gaps ctx ~size ~align =
  candidates_capped ?max_gaps ~cost_cap:max_int ctx ~size ~align

(* Default relocation target: lowest-addressed existing gap that does
   not overlap the window being cleared. *)
let relocate_first_fit ctx ~avoid (o : Heap.obj) =
  let free = Ctx.free_index ctx in
  match Free_index.first_fit_gap free ~size:o.size with
  | Some a when a + o.size <= Interval.start avoid || a >= Interval.stop avoid
    ->
      Some a
  | Some _ ->
      Free_index.first_fit_from free ~from:(Interval.stop avoid) ~size:o.size
  | None -> None

(* Try [attempt] on up to [attempts] candidates in order; the first
   cleared window wins. A failed attempt keeps the moves it made, and
   may have moved objects into a later candidate's window: each window
   is priced again when it is tried, against the budget left at that
   point, and skipped if it no longer fits. Top level, not a local
   closure: [try_evict] runs on every heap-growing allocation of the
   compacting managers. *)
let rec first_success ~heap ~budget ~size ~attempt attempts = function
  | [] -> None
  | _ when attempts = 0 -> None
  | c :: rest -> (
      let left = Budget.available budget in
      let stop = c.window_start + size in
      if Heap.clear_cost heap ~start:c.window_start ~stop ~cap:left > left then
        first_success ~heap ~budget ~size ~attempt attempts rest
      else
        match attempt c with
        | Some _ as res -> res
        | None ->
            first_success ~heap ~budget ~size ~attempt (attempts - 1) rest)

(* Clear one window and return its start address. Objects are moved
   largest-first so that relocation failures surface before most of the
   budget is spent. Returns [None] when no candidate window can be
   cleared within [move_cap] words of budget. *)
let try_evict ?(max_attempts = 3) ?max_gaps ?relocate ctx ~size ~align
    ~move_cap =
  let relocate =
    match relocate with Some f -> f | None -> relocate_first_fit
  in
  let heap = Ctx.heap ctx in
  let budget = Ctx.budget ctx in
  let cap = min move_cap (Budget.available budget) in
  let candidates =
    if Free_index.gap_count (Ctx.free_index ctx) = 0 then []
    else
      candidates_capped ?max_gaps ~cost_cap:cap ctx ~size ~align
  in
  let attempt { window_start; _ } =
    T.Counter.incr attempts_c;
    let avoid = Interval.of_extent ~start:window_start ~len:size in
    let objs =
      Heap.objects_in heap ~start:window_start ~stop:(window_start + size)
      |> List.sort (fun (a : Heap.obj) (b : Heap.obj) ->
             Int.compare b.size a.size)
    in
    let ok =
      List.for_all
        (fun (o : Heap.obj) ->
          match relocate ctx ~avoid o with
          | Some dst ->
              Heap.move heap o.oid ~dst;
              T.Counter.add evicted_words_c o.size;
              true
          | None -> false)
        objs
    in
    if ok then Some window_start else None
  in
  let result =
    first_success ~heap ~budget ~size ~attempt max_attempts candidates
  in
  (match result with
  | Some a ->
      T.Counter.incr cleared_c;
      Log.debug (fun k ->
          k "cleared window [%d,%d) (budget left %d)" a (a + size)
            (Budget.available budget))
  | None ->
      Log.debug (fun k ->
          k "no evictable %d-word window (%d candidates within cap %d)" size
            (List.length candidates) cap));
  result
