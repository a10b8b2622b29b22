(* The benchmark's probes at toy scale: wrapping a manager to time it,
   recording its event stream or replaying that stream must leave the
   simulated outcome bit-identical to a plain [Runner.run], and the
   substrate replays must reproduce the recorded heap. *)

open Pc_exec
module Probe = Perfbench.Probe
module Heap = Pc_heap.Heap
module Runner = Pc_adversary.Runner

let dist = Pc_adversary.Random_workload.Pow2 { lo_log = 0; hi_log = 5 }

let specs =
  Spec.pf ~c:16.0 ~manager:"compacting" ~m:(1 lsl 12) ~n:(1 lsl 6) ()
  :: List.map
       (fun manager ->
         Spec.random_churn ~seed:3 ~churn:2_000 ~c:8.0 ~manager ~m:(1 lsl 12) ~dist
           ~target_live:(1 lsl 11) ())
       Perfbench.Workloads.churn_managers

let run ?(wrap = Fun.id) spec =
  Runner.run ?c:spec.Spec.c ~program:(Spec.build spec)
    ~manager:(wrap (Spec.manager spec))
    ()

let record spec =
  let wrap, finish = Probe.recording () in
  let o = run ~wrap spec in
  (o, finish ())

let same what spec (a : Runner.outcome) (b : Runner.outcome) =
  Alcotest.(check bool) (what ^ ": " ^ Spec.key spec) true (a = b)

let test_wrappers spec () =
  let plain = run spec in
  let clock = Probe.clock () in
  same "timed manager" spec plain (run ~wrap:(Probe.timed clock) spec);
  let events = ref 0 in
  same "event counter" spec plain (run ~wrap:(Probe.count_events events) spec);
  let recorded, s = record spec in
  same "recording" spec plain recorded;
  Alcotest.(check int) "stream length" !events s.len;
  Alcotest.(check int) "kinds add up" s.len (s.allocs + s.frees + s.moves);
  Alcotest.(check int) "one timed call per alloc" s.allocs clock.alloc_calls;
  Alcotest.(check int) "one timed call per free" s.frees clock.free_calls;
  Alcotest.(check int) "moved words" plain.moved s.moved_words;
  same "replay manager" spec plain
    (run ~wrap:(fun inner -> Probe.replayer ~name:(Pc_manager.Manager.name inner) s) spec)

let test_replays spec () =
  let o, s = record spec in
  let check_heap backend =
    let r = Probe.replay_heap ~backend s in
    let name = Pc_heap.Backend.to_string backend in
    Alcotest.(check int) (name ^ " high-water mark") o.hs (Heap.high_water r.heap);
    Alcotest.(check int) (name ^ " live words") o.final_live (Heap.live_words r.heap);
    Alcotest.(check int) (name ^ " allocated") o.allocated (Heap.allocated_total r.heap);
    Alcotest.(check int) (name ^ " moved") o.moved (Heap.moved_total r.heap);
    Alcotest.(check int) (name ^ " freed") o.freed (Heap.freed_total r.heap);
    r.heap
  in
  let heap = check_heap Pc_heap.Backend.Imperative in
  ignore (check_heap Pc_heap.Backend.Reference);
  let fi, _ = Probe.replay_free_index s in
  Alcotest.(check (list (pair int int)))
    "free-index replay gaps" (Pc_heap.Free_index.gaps (Heap.free_index heap))
    (Pc_heap.Free_index.gaps fi)

let test_replayer_rejects_divergence () =
  let spec = List.nth specs 1 in
  let _, s = record spec in
  let other =
    Spec.random_churn ~seed:4 ~churn:2_000 ~c:8.0 ~manager:"first-fit" ~m:(1 lsl 12)
      ~dist ~target_live:(1 lsl 11) ()
  in
  match run ~wrap:(fun inner -> Probe.replayer ~name:(Pc_manager.Manager.name inner) s) other with
  | _ -> Alcotest.fail "a stream replayed against another program must diverge"
  | exception (Probe.Diverged _ | Invalid_argument _) -> ()

let () =
  let per_spec name f =
    List.mapi
      (fun i spec ->
        Alcotest.test_case (Printf.sprintf "%s %d %s" name i spec.Spec.manager) `Quick (f spec))
      specs
  in
  Alcotest.run "perfbench"
    [
      ("wrappers", per_spec "outcome unchanged" test_wrappers);
      ("replays", per_spec "reproduce the heap" test_replays);
      ( "replayer",
        [ Alcotest.test_case "diverges on another program" `Quick test_replayer_rejects_divergence ]
      );
    ]
