open Pc_adversary

(* The sweep engine: resolve a list of job specs against the
   checkpoint journal and the result cache, execute the misses on a
   Domain worker pool with per-job exception capture, retry and
   per-job timeouts, store fresh outcomes back, and report a summary.

   Determinism: every job rebuilds its program, manager, heap and
   budget from the spec alone, and all randomness in the workloads is
   seeded — so the outcome of a spec is a pure function of the spec,
   independent of worker count, scheduling, retries and resume point.
   [run ~jobs:4] is bit-identical to [run ~jobs:1], and a killed sweep
   resumed from its journal is bit-identical to an uninterrupted one.

   Failure taxonomy (see DESIGN.md):
   - transient: an injected worker crash ([Faults.Worker_crash]) or a
     wall-clock timeout. Retried with exponential backoff and seeded
     deterministic jitter, up to [retries] times.
   - deterministic: any other exception that the job reproduces on an
     immediate probe re-run. Degrades to [Error] without burning the
     transient-retry budget — a poisoned spec never stalls the pool.
   - fatal: [Faults.Sweep_killed] (the simulated process kill) is
     never caught; it escapes [run] so crash-recovery tests exercise
     the same path a real SIGKILL would. *)

let src = Logs.Src.create "pc.exec" ~doc:"parallel sweep engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Telemetry: resolution mix (journal/cache/executed), transient-retry
   pressure, and one "job:<digest-prefix>" span per executed job so
   `pc report` can rank the hottest points of a sweep. Job spans are
   interned on the main domain before dispatch; each is then written
   by exactly one worker. *)
module T = Pc_telemetry

let jobs_c = T.Registry.counter "engine.jobs"
let executed_c = T.Registry.counter "engine.executed"
let cache_hits_c = T.Registry.counter "engine.cache_hits"
let cache_miss_c = T.Registry.counter "engine.cache_misses"
let cache_invalid_c = T.Registry.counter "engine.cache_invalid"
let resumed_c = T.Registry.counter "engine.journal_resumed"
let retries_c = T.Registry.counter "engine.retries"
let transients_c = T.Registry.counter "engine.transient_failures"
let failed_c = T.Registry.counter "engine.failed"

type job_result = {
  spec : Spec.t;
  result : (Runner.outcome, string) result;
  from_cache : bool;
  from_journal : bool;
  attempts : int;
  elapsed : float;
  bundle : string option;
}

type summary = {
  total : int;
  executed : int;
  cached : int;
  resumed : int;
  recovered : int;
  retried : int;
  failed : int;
  violations : int;
  bundles : string list;
  wall : float;
}

(* ------------------------------------------------------------------ *)
(* One job, with retries                                              *)

(* Theorem 1's floor applies to full-strength PF only: the ablation
   variants (no density maintenance, truncated stage 1) are designed
   to fall below it. *)
let theory_h_of spec =
  match (spec.Spec.workload, spec.Spec.c) with
  | Spec.Pf { ell; stage1_steps = None; maintain_density = true }, Some c -> (
      match Pf.config ?ell ~m:spec.Spec.m ~n:spec.Spec.n ~c () with
      | cfg -> Some cfg.Pf.h
      | exception Invalid_argument _ -> None)
  | _ -> None

let run_once ?faults ?audit ?failures_dir spec ~digest ~attempt =
  match
    (match faults with
    | Some f -> Faults.pre_job f ~digest ~attempt
    | None -> ());
    let pf_audit = audit = Some Pc_audit.Oracle.Full in
    let program = Spec.build ~pf_audit spec in
    let manager = Spec.manager spec in
    Runner.run ?c:spec.Spec.c ?audit ?theory_h:(theory_h_of spec)
      ?failures_dir ~program ~manager ()
  with
  | outcome -> Ok outcome
  | exception (Faults.Sweep_killed _ as e) ->
      (* Never classified: the simulated process kill. *)
      raise e
  | exception e -> Error e

(* Exponential backoff with seeded deterministic jitter: the sleep for
   retry [k] of a job is a pure function of (seed, digest, k). *)
let backoff_sleep ~seed ~digest ~backoff k =
  if backoff > 0. then begin
    let jitter = Faults.hash01 ~seed ~site:"backoff" ~digest k in
    Unix.sleepf (backoff *. (2. ** float_of_int k) *. (1. +. jitter))
  end

let execute_with_retries ?faults ?(retries = 0) ?timeout ?(backoff = 0.1)
    ?audit ?failures_dir spec =
  let digest = Spec.digest spec in
  let seed = match faults with Some f -> Faults.seed f | None -> 0 in
  let t0 = Unix.gettimeofday () in
  let bundle = ref None in
  (* [attempt] numbers every execution; [transients] counts the
     transient failures burned so far (capped by [retries]);
     [probed] is set once a generic exception has been re-run. *)
  let rec go ~attempt ~transients ~probed =
    let a0 = Unix.gettimeofday () in
    let result = run_once ?faults ?audit ?failures_dir spec ~digest ~attempt in
    let attempt_elapsed = Unix.gettimeofday () -. a0 in
    let timed_out =
      match timeout with Some limit -> attempt_elapsed > limit | None -> false
    in
    let retry_transient reason =
      T.Counter.incr transients_c;
      if transients < retries then begin
        Log.info (fun k ->
            k "job %s: transient failure (%s) on attempt %d; retrying" digest
              reason attempt);
        backoff_sleep ~seed ~digest ~backoff transients;
        go ~attempt:(attempt + 1) ~transients:(transients + 1) ~probed
      end
      else
        ( Error
            (Printf.sprintf "unrecovered transient failure (%s) after %d attempts"
               reason (attempt + 1)),
          attempt + 1 )
    in
    match result with
    | Ok _ when timed_out ->
        (* The attempt finished but blew its wall-clock budget: treat
           the outcome as lost (a real supervisor would have killed
           the worker) and retry. Timeouts are detected post-hoc — a
           pure simulation cannot be preempted mid-computation. *)
        retry_transient (Printf.sprintf "timeout: %.3fs > %.3fs" attempt_elapsed
                           (Option.get timeout))
    | Ok outcome -> (Ok outcome, attempt + 1)
    | Error (Faults.Worker_crash _) -> retry_transient "worker crash"
    | Error (Pc_audit.Report.Reported b) ->
        (* An oracle violation is deterministic by construction (the
           bundle's replay already reproduced it during triage): no
           probe, no retry, and the bundle path rides on the result. *)
        bundle := Some b.Pc_audit.Report.dir;
        ( Error
            (Fmt.str "oracle violation: %a [bundle: %s]"
               Pc_audit.Oracle.pp_violation b.Pc_audit.Report.violation
               b.Pc_audit.Report.dir),
          attempt + 1 )
    | Error e ->
        if timed_out then
          retry_transient
            (Printf.sprintf "timeout: %.3fs > %.3fs" attempt_elapsed
               (Option.get timeout))
        else if not probed then begin
          (* First sighting of a generic exception: probe once,
             immediately. If the job reproduces it, it is
             deterministic; if not, it was environmental. *)
          Log.debug (fun k ->
              k "job %s: %s on attempt %d; probing for reproducibility" digest
                (Printexc.to_string e) attempt);
          go ~attempt:(attempt + 1) ~transients ~probed:true
        end
        else (Error (Printexc.to_string e), attempt + 1)
  in
  let result, attempts = go ~attempt:0 ~transients:0 ~probed:false in
  {
    spec;
    result;
    from_cache = false;
    from_journal = false;
    attempts;
    elapsed = Unix.gettimeofday () -. t0;
    bundle = !bundle;
  }

let execute spec = execute_with_retries spec

(* ------------------------------------------------------------------ *)
(* The sweep                                                          *)

let run ?(jobs = 1) ?cache ?checkpoint ?retries ?timeout ?backoff ?faults
    ?audit ?failures_dir specs =
  let t0 = Unix.gettimeofday () in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let results : job_result option array = Array.make n None in
  let recovered = Atomic.make 0 in
  let retried = Atomic.make 0 in
  (* 1. Replay journaled outcomes (resume). *)
  (match checkpoint with
  | None -> ()
  | Some journal ->
      Array.iteri
        (fun i spec ->
          match Checkpoint.find journal spec with
          | Some result ->
              results.(i) <-
                Some
                  {
                    spec;
                    result;
                    from_cache = false;
                    from_journal = true;
                    attempts = 0;
                    elapsed = 0.;
                    bundle = None;
                  }
          | None -> ())
        specs);
  (* 2. Serve what we can from the cache (cheap, sequential). An
     invalid entry — truncated, garbage, stale format, digest
     collision — is surfaced (counted and logged once), then
     re-executed and self-healed by the store below. *)
  (match cache with
  | None -> ()
  | Some cache ->
      Array.iteri
        (fun i spec ->
          if results.(i) = None then
            match Cache.lookup ?faults cache spec with
            | Cache.Hit outcome ->
                T.Counter.incr cache_hits_c;
                results.(i) <-
                  Some
                    {
                      spec;
                      result = Ok outcome;
                      from_cache = true;
                      from_journal = false;
                      attempts = 0;
                      elapsed = 0.;
                      bundle = None;
                    }
            | Cache.Miss -> T.Counter.incr cache_miss_c
            | Cache.Invalid { path; reason } ->
                Atomic.incr recovered;
                T.Counter.incr cache_invalid_c;
                Log.warn (fun k ->
                    k "cache: invalid entry %s (%s); re-executing" path reason))
        specs);
  (* 3. Execute the misses on the pool. Each job journals and caches
     its own outcome as it completes, so a kill at any point loses at
     most the in-flight jobs. *)
  let misses =
    Array.of_seq
      (Seq.filter (fun i -> results.(i) = None) (Seq.init n (fun i -> i)))
  in
  let journaled =
    Array.fold_left
      (fun acc -> function Some r when r.from_journal -> acc + 1 | _ -> acc)
      0 results
  in
  Log.info (fun k ->
      k "sweep: %d points, %d journaled, %d cached, %d to execute on %d \
         worker(s)"
        n journaled
        (n - Array.length misses - journaled)
        (Array.length misses) (max 1 jobs));
  (* Job spans are interned up front, on the main domain, so the
     registry mutex is never contended from the pool and each span has
     a single writer (its worker). Created only when telemetry is on —
     a large disabled sweep should not populate the registry. *)
  let job_spans =
    if !T.Sink.active then begin
      let tbl = Hashtbl.create (Array.length misses) in
      Array.iter
        (fun i ->
          let digest = Spec.digest specs.(i) in
          let short = String.sub digest 0 (min 12 (String.length digest)) in
          Hashtbl.replace tbl i (T.Registry.span ("job:" ^ short)))
        misses;
      Some tbl
    end
    else None
  in
  let exec_one i =
    let work () =
      execute_with_retries ?faults ?retries ?timeout ?backoff ?audit
        ?failures_dir specs.(i)
    in
    let r =
      match job_spans with
      | Some tbl -> T.Span.time (Hashtbl.find tbl i) work
      | None -> work ()
    in
    if r.attempts > 1 then
      ignore (Atomic.fetch_and_add retried (r.attempts - 1));
    (* Durability order matters: journal first (fsynced — survives a
       kill), then cache, then the fault layer's kill point. *)
    (match checkpoint with
    | Some journal -> Checkpoint.record journal r.spec r.result
    | None -> ());
    (match (cache, r.result) with
    | Some cache, Ok outcome -> Cache.store ?faults cache r.spec outcome
    | _ -> ());
    (match faults with Some f -> Faults.job_completed f | None -> ());
    r
  in
  let executed = Pool.map_array ~jobs exec_one misses in
  Array.iteri (fun k i -> results.(i) <- Some executed.(k)) misses;
  let results =
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every slot is a hit or a miss *))
         results)
  in
  let count p = List.length (List.filter p results) in
  let bundles = List.filter_map (fun r -> r.bundle) results in
  let summary =
    {
      total = n;
      executed = Array.length misses;
      cached = count (fun r -> r.from_cache);
      resumed = count (fun r -> r.from_journal);
      recovered = Atomic.get recovered;
      retried = Atomic.get retried;
      failed = count (fun r -> Result.is_error r.result);
      violations = List.length bundles;
      bundles;
      wall = Unix.gettimeofday () -. t0;
    }
  in
  if !T.Sink.active then begin
    T.Counter.add jobs_c summary.total;
    T.Counter.add executed_c summary.executed;
    T.Counter.add resumed_c summary.resumed;
    T.Counter.add retries_c summary.retried;
    T.Counter.add failed_c summary.failed
  end;
  (results, summary)

let outcome_exn r =
  match r.result with
  | Ok o -> o
  | Error msg -> Fmt.failwith "job %a failed: %s" Spec.pp r.spec msg

let pp_summary ppf s =
  Fmt.pf ppf "%d point%s: %d executed, %d cached, %d failed in %.2fs" s.total
    (if s.total = 1 then "" else "s")
    s.executed s.cached s.failed s.wall;
  if s.resumed > 0 then Fmt.pf ppf " (%d resumed from journal)" s.resumed;
  if s.recovered > 0 then
    Fmt.pf ppf " (%d invalid cache entr%s recovered)" s.recovered
      (if s.recovered = 1 then "y" else "ies");
  if s.retried > 0 then
    Fmt.pf ppf " (%d retr%s)" s.retried (if s.retried = 1 then "y" else "ies");
  if s.violations > 0 then begin
    Fmt.pf ppf " (%d oracle violation%s)" s.violations
      (if s.violations = 1 then "" else "s");
    List.iter (fun b -> Fmt.pf ppf "@,  bundle: %s" b) s.bundles
  end
