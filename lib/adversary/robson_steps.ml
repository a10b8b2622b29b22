(* The step engine of Robson's bad program P_R (Algorithm 2), in the
   ghost-hardened form used by stage 1 of P_F (Algorithm 1).

   Step 0 fills the live budget with unit objects. Step i picks the
   offset f_i in {f_(i-1), f_(i-1) + 2^(i-1)} that maximises the wasted
   space sum_{o f_i-occupying} (2^i - |o|) over live and ghost objects,
   frees every non-occupying object, and refills the budget with
   objects of size 2^i. Objects pinned at the f_i offsets prevent any
   two adjacent offset words from hosting a future object between
   them, which is what blows the heap up. *)

(* Does the object (at its original address) occupy a word congruent
   to [f] modulo 2^i? (Definition 4.2.) *)
let occupying ~f ~step (r : View.record) =
  let modulus = 1 lsl step in
  r.size >= modulus || (f - r.orig_addr) land (modulus - 1) < r.size

(* The wasted-space objective of Algorithm 2 line 4 for offset
   candidate [f]. *)
let wasted_space view ~f ~step =
  let modulus = 1 lsl step in
  View.fold_present view ~init:0 ~f:(fun acc r ->
      if occupying ~f ~step r then acc + (modulus - r.size) else acc)

(* One de-allocation + refill step. Returns the chosen offset: the
   second candidate only when it wastes strictly more space. Both
   candidates are scored in one pass over the view. *)
let step view ~m ~prev_f ~step:i =
  let modulus = 1 lsl i in
  let f0 = prev_f and f1 = prev_f + (1 lsl (i - 1)) in
  let w0 = ref 0 and w1 = ref 0 in
  View.iter_present view (fun r ->
      let waste = modulus - r.size in
      if occupying ~f:f0 ~step:i r then w0 := !w0 + waste;
      if occupying ~f:f1 ~step:i r then w1 := !w1 + waste);
  let f = if !w1 > !w0 then f1 else f0 in
  (* Free every live or ghost object that is not f-occupying. *)
  let doomed =
    View.fold_present view ~init:[] ~f:(fun acc r ->
        if occupying ~f ~step:i r then acc else r :: acc)
  in
  List.iter (fun r -> View.free view r) doomed;
  (* Refill: floor((M - present)/2^i) objects of size 2^i. Ghosts count
     against the refill (Algorithm 1 line 7), which keeps the program
     safely below its live bound. *)
  let size = 1 lsl i in
  let count = (m - View.present_words view) / size in
  for _ = 1 to count do
    ignore (View.alloc view ~size : View.record)
  done;
  f

(* Number of live-or-ghost f-occupying objects — the quantity Claim
   4.9 bounds from below by M*(i+2)/2^(i+1) after step i. *)
let occupying_count view ~f ~step =
  View.fold_present view ~init:0 ~f:(fun acc r ->
      if occupying ~f ~step r then acc + 1 else acc)

(* Run steps 0..steps. Returns the final offset f_steps. [observe]
   fires after each step with the chosen offset. *)
let run ?observe view ~m ~steps =
  if steps < 0 then invalid_arg "Robson_steps.run: negative step count";
  for _ = 1 to m - View.present_words view do
    ignore (View.alloc view ~size:1 : View.record)
  done;
  let emit i f =
    match observe with Some g -> g ~step:i ~f | None -> ()
  in
  emit 0 0;
  let f = ref 0 in
  for i = 1 to steps do
    f := step view ~m ~prev_f:!f ~step:i;
    emit i !f
  done;
  !f
