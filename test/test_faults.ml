(* The fault-tolerance layer: injected worker crashes, stalls, torn
   cache writes and corrupted cache reads must all be recovered
   without perturbing a single outcome, and a sweep killed at an
   arbitrary job must resume from its journal bit-identical to an
   uninterrupted run. *)

open Pc_exec

let outcome : Pc_adversary.Runner.outcome Alcotest.testable =
  Alcotest.testable (fun ppf o -> Pc_adversary.Runner.pp_outcome ppf o) ( = )

let outcomes results = List.map Engine.outcome_exn results

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pc_faults_test_%d_%d" (Unix.getpid ()) !counter)

(* A pool of cheap, deterministic specs spanning the workload kinds
   and moving/non-moving managers. *)
let spec_pool =
  [|
    Spec.robson ~manager:"first-fit" ~m:(1 lsl 10) ~n:(1 lsl 4) ();
    Spec.robson ~manager:"buddy" ~m:(1 lsl 10) ~n:(1 lsl 5) ();
    Spec.pf ~c:8.0 ~manager:"compacting" ~m:(1 lsl 11) ~n:(1 lsl 5) ();
    Spec.pf ~c:16.0 ~manager:"improved-ac" ~m:(1 lsl 11) ~n:(1 lsl 5) ();
    Spec.sawtooth ~c:8.0 ~manager:"best-fit" ~m:(1 lsl 10) ~n:(1 lsl 4) ();
    Spec.random_churn ~seed:11 ~churn:300 ~c:8.0 ~manager:"next-fit"
      ~m:(1 lsl 9)
      ~dist:(Pc_adversary.Random_workload.Pow2 { lo_log = 0; hi_log = 3 })
      ~target_live:(1 lsl 8) ();
  |]

let all_specs = Array.to_list spec_pool

(* Uninterrupted, fault-free, sequential: the reference the fault runs
   must reproduce bit-exactly. Computed once. *)
let baseline =
  lazy
    (let results, summary = Engine.run ~jobs:1 all_specs in
     assert (summary.failed = 0);
     outcomes results)

let check_against_baseline msg results =
  Alcotest.(check (list outcome)) msg (Lazy.force baseline) (outcomes results)

(* ------------------------------------------------------------------ *)
(* The deterministic coin                                             *)

let test_hash01_deterministic () =
  let v1 = Faults.hash01 ~seed:7 ~site:"crash" ~digest:"abc" 0 in
  let v2 = Faults.hash01 ~seed:7 ~site:"crash" ~digest:"abc" 0 in
  Alcotest.(check (float 0.)) "same inputs, same draw" v1 v2;
  Alcotest.(check bool) "in [0,1)" true (v1 >= 0. && v1 < 1.);
  Alcotest.(check bool)
    "different site, different draw" true
    (v1 <> Faults.hash01 ~seed:7 ~site:"delay" ~digest:"abc" 0);
  Alcotest.(check bool)
    "different attempt, different draw" true
    (v1 <> Faults.hash01 ~seed:7 ~site:"crash" ~digest:"abc" 1)

let test_spec_string_round_trip () =
  (match Faults.of_string "crash=0.3,delay=0.15,trunc=0.2,corrupt=0.2,seed=7" with
  | Ok f ->
      Alcotest.(check int) "seed parsed" 7 (Faults.seed f);
      (* to_string must itself parse back. *)
      Alcotest.(check bool)
        "to_string parses" true
        (Result.is_ok (Faults.of_string (Faults.to_string f)))
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Faults.of_string bad)))
    [ ""; "crash"; "crash=2.0"; "nope=1"; "kill-after=-1"; "wkill=0.3" ]

(* ------------------------------------------------------------------ *)
(* Crash and delay recovery                                           *)

let test_crash_recovery () =
  (* crash=1.0: every job dies on attempts 0 and 1 (max_transient=2);
     a retry budget of 3 must recover them all, bit-identically. *)
  let faults = Faults.make ~seed:1 ~crash:1.0 ~max_transient:2 () in
  let results, summary =
    Engine.run ~jobs:2 ~retries:3 ~backoff:0.0005 ~faults all_specs
  in
  Alcotest.(check int) "no failures" 0 summary.failed;
  Alcotest.(check int)
    "two retries per job"
    (2 * List.length all_specs)
    summary.retried;
  check_against_baseline "crash-recovered outcomes bit-identical" results

let test_crash_exhausts_retries () =
  let faults = Faults.make ~seed:1 ~crash:1.0 ~max_transient:3 () in
  let results, summary =
    Engine.run ~retries:1 ~backoff:0.0005 ~faults [ List.hd all_specs ]
  in
  Alcotest.(check int) "job failed" 1 summary.failed;
  match (List.hd results).result with
  | Error msg ->
      Alcotest.(check bool)
        "classified as unrecovered transient" true
        (contains ~sub:"unrecovered transient" msg)
  | Ok _ -> Alcotest.fail "expected a failure"

let test_delay_timeout_retry () =
  (* delay=1.0 stalls attempt 0 past the timeout; attempt 1 is beyond
     max_transient=1 and runs clean. *)
  let faults =
    Faults.make ~seed:2 ~delay:1.0 ~delay_s:0.08 ~max_transient:1 ()
  in
  let spec = Spec.robson ~manager:"first-fit" ~m:(1 lsl 8) ~n:(1 lsl 4) () in
  let r = Engine.execute_with_retries ~faults ~retries:2 ~timeout:0.04 ~backoff:0.0005 spec in
  Alcotest.(check bool) "recovered" true (Result.is_ok r.result);
  Alcotest.(check int) "took exactly one retry" 2 r.attempts

let test_deterministic_failure_probe () =
  (* A spec that raises the same exception every time must be probed
     once and then reported, not retried through the whole budget. *)
  let poisoned = Spec.robson ~manager:"no-such-manager" ~m:256 ~n:16 () in
  let r = Engine.execute_with_retries ~retries:5 ~backoff:0.0005 poisoned in
  Alcotest.(check bool) "failed" true (Result.is_error r.result);
  Alcotest.(check int) "one probe, no transient retries" 2 r.attempts;
  match r.result with
  | Error msg ->
      Alcotest.(check bool)
        "not classified transient" false
        (contains ~sub:"transient" msg)
  | Ok _ -> assert false

(* ------------------------------------------------------------------ *)
(* Cache fault kinds: torn writes and corrupted reads self-heal       *)

let test_torn_write_self_heals () =
  let spec = List.hd all_specs in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  (* Every store torn: the entry lands truncated (but atomically). *)
  let tearing = Faults.make ~seed:3 ~trunc:1.0 () in
  let _, s1 = Engine.run ~cache ~faults:tearing [ spec ] in
  Alcotest.(check int) "first run executes" 1 s1.executed;
  (match Cache.lookup cache spec with
  | Cache.Invalid _ -> ()
  | Cache.Hit _ -> Alcotest.fail "torn entry served as a hit"
  | Cache.Miss -> Alcotest.fail "torn entry invisible (expected Invalid)");
  (* Fault-free re-run: the invalid entry is counted, re-executed and
     healed... *)
  let r2, s2 = Engine.run ~cache [ spec ] in
  Alcotest.(check int) "invalid entry counted" 1 s2.recovered;
  Alcotest.(check int) "re-executed" 1 s2.executed;
  Alcotest.(check outcome)
    "healed outcome bit-identical"
    (List.hd (Lazy.force baseline))
    (Engine.outcome_exn (List.hd r2));
  (* ... and the third run is a clean cache hit. *)
  let _, s3 = Engine.run ~cache [ spec ] in
  Alcotest.(check int) "healed entry hits" 1 s3.cached;
  Alcotest.(check int) "nothing recovered" 0 s3.recovered

let test_corrupt_read_self_heals () =
  let spec = List.hd all_specs in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let _, s1 = Engine.run ~cache [ spec ] in
  Alcotest.(check int) "primed" 1 s1.executed;
  (* corrupt=1.0: every read of the (intact) entry is mangled. *)
  let corrupting = Faults.make ~seed:4 ~corrupt:1.0 () in
  let r2, s2 = Engine.run ~cache ~faults:corrupting [ spec ] in
  Alcotest.(check int) "corrupted read counted" 1 s2.recovered;
  Alcotest.(check int) "re-executed" 1 s2.executed;
  Alcotest.(check int) "no failures" 0 s2.failed;
  Alcotest.(check outcome)
    "outcome unperturbed"
    (List.hd (Lazy.force baseline))
    (Engine.outcome_exn (List.hd r2));
  (* Fault-free read: the entry on disk was never damaged. *)
  let _, s3 = Engine.run ~cache [ spec ] in
  Alcotest.(check int) "clean hit afterwards" 1 s3.cached

(* ------------------------------------------------------------------ *)
(* Journal mechanics                                                  *)

let test_journal_tolerates_truncated_tail () =
  let dir = fresh_dir () in
  let specs = all_specs in
  let cp = Checkpoint.open_ ~dir specs in
  List.iter
    (fun s -> Checkpoint.record cp s (Error "placeholder"))
    [ List.nth specs 0; List.nth specs 1 ];
  Checkpoint.close cp;
  let jpath = Checkpoint.path ~dir specs in
  let clean_size = (Unix.stat jpath).Unix.st_size in
  (* Simulate a writer killed mid-append. *)
  let torn = "{\"digest\":\"deadbeef\",\"key\":\"trunc" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 jpath in
  output_string oc torn;
  close_out oc;
  let cp = Checkpoint.open_ ~resume:true ~dir specs in
  Alcotest.(check int) "intact lines survive" 2 (Checkpoint.loaded cp);
  Alcotest.(check int)
    "every torn byte counted repaired" (String.length torn)
    (Checkpoint.repaired cp);
  Alcotest.(check int)
    "file physically truncated back to the valid prefix" clean_size
    (Unix.stat jpath).Unix.st_size;
  Alcotest.(check bool)
    "journaled error replays" true
    (Checkpoint.find cp (List.nth specs 0) = Some (Error "placeholder"));
  Alcotest.(check bool)
    "unjournaled spec misses" true
    (Checkpoint.find cp (List.nth specs 2) = None);
  (* WAL invariant: appends after a repair land on a record boundary,
     so the next resume is clean — nothing repaired, everything
     visible. *)
  Checkpoint.record cp (List.nth specs 2) (Error "after-repair");
  Checkpoint.close cp;
  let cp = Checkpoint.open_ ~resume:true ~dir specs in
  Alcotest.(check int) "post-repair append replays" 3 (Checkpoint.loaded cp);
  Alcotest.(check int) "clean journal needs no repair" 0 (Checkpoint.repaired cp);
  Alcotest.(check bool)
    "post-repair record intact" true
    (Checkpoint.find cp (List.nth specs 2) = Some (Error "after-repair"));
  Checkpoint.close cp

let test_sweep_digest_sensitivity () =
  let d = Checkpoint.sweep_digest in
  Alcotest.(check string) "digest is stable" (d all_specs) (d all_specs);
  Alcotest.(check bool)
    "order-sensitive" true
    (d all_specs <> d (List.rev all_specs));
  Alcotest.(check bool)
    "content-sensitive" true
    (d all_specs <> d (List.tl all_specs))

(* ------------------------------------------------------------------ *)
(* The crash-recovery property: kill at a random job under every
   fault kind, resume, and demand bit-identical results.              *)

let kill_resume_case (seed, kill_after, count) =
  let specs =
    List.filteri (fun i _ -> i < count) all_specs
  in
  let reference, ref_summary = Engine.run ~jobs:1 specs in
  if ref_summary.failed > 0 then QCheck.Test.fail_report "baseline failed";
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let jdir = Checkpoint.default_dir ~cache_dir:dir in
  let chaos ?kill_after seed =
    Faults.make ~seed ~crash:0.4 ~delay:0.3 ~delay_s:0.001 ~trunc:0.4
      ~corrupt:0.4 ~max_transient:2 ?kill_after ()
  in
  (* First run: full chaos, killed after [kill_after] completed jobs
     (or runs to completion if the kill point is past the end). *)
  let cp = Checkpoint.open_ ~dir:jdir specs in
  (try
     ignore
       (Engine.run ~jobs:1 ~cache ~checkpoint:cp ~retries:3 ~backoff:0.0003
          ~faults:(chaos ~kill_after seed) specs)
   with Faults.Sweep_killed _ -> ());
  Checkpoint.close cp;
  (* Resume: chaos still on (different draws), no kill. *)
  let cp = Checkpoint.open_ ~resume:true ~dir:jdir specs in
  let results, summary =
    Engine.run ~jobs:2 ~cache ~checkpoint:cp ~retries:3 ~backoff:0.0003
      ~faults:(chaos (seed + 1)) specs
  in
  Checkpoint.close cp;
  if summary.failed > 0 then
    QCheck.Test.fail_reportf "resumed run left %d failure(s)" summary.failed;
  if outcomes results <> outcomes reference then
    QCheck.Test.fail_report
      "killed-and-resumed outcomes differ from uninterrupted run";
  true

let test_kill_resume_deterministic =
  QCheck.Test.make ~count:15
    ~name:"kill at job k + resume = uninterrupted run (all fault kinds)"
    QCheck.(
      triple (int_bound 10_000) (int_range 1 6)
        (int_range 1 (Array.length spec_pool)))
    kill_resume_case

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault injection"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded coin" `Quick test_hash01_deterministic;
          Alcotest.test_case "spec strings" `Quick test_spec_string_round_trip;
        ] );
      ( "transient failures",
        [
          Alcotest.test_case "crashes recovered by retries" `Quick
            test_crash_recovery;
          Alcotest.test_case "retry budget exhausts" `Quick
            test_crash_exhausts_retries;
          Alcotest.test_case "delay + timeout retries" `Quick
            test_delay_timeout_retry;
          Alcotest.test_case "deterministic failures probed once" `Quick
            test_deterministic_failure_probe;
        ] );
      ( "cache faults",
        [
          Alcotest.test_case "torn write self-heals" `Quick
            test_torn_write_self_heals;
          Alcotest.test_case "corrupt read self-heals" `Quick
            test_corrupt_read_self_heals;
        ] );
      ( "journal",
        [
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_journal_tolerates_truncated_tail;
          Alcotest.test_case "sweep digest sensitivity" `Quick
            test_sweep_digest_sensitivity;
        ] );
      ( "crash recovery",
        [ QCheck_alcotest.to_alcotest test_kill_resume_deterministic ] );
    ]
