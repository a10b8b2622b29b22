(** The fault-tolerant parallel sweep engine.

    [run] resolves each spec against the checkpoint journal (resume)
    and the result cache, executes the misses on a fixed-size [Domain]
    worker pool (see {!Pool}) with per-job exception capture, retries
    and wall-clock timeouts, stores fresh outcomes back into the cache
    and journal as each job completes, and returns per-job results in
    input order plus a summary.

    Outcomes are a pure function of the spec — workload randomness is
    seeded, and every job gets a fresh heap, budget and manager — so
    [run ~jobs:k] is bit-identical to [run ~jobs:1] for any [k], and a
    sweep killed mid-run and resumed from its journal is bit-identical
    to an uninterrupted one.

    Failure taxonomy (DESIGN.md §failure-taxonomy):
    - {e transient} — an injected worker crash or a wall-clock
      timeout: retried up to [retries] times with exponential backoff
      and seeded deterministic jitter.
    - {e deterministic} — any other exception the job reproduces on an
      immediate probe re-run: degrades to [Error] without burning the
      transient budget, so a poisoned spec never stalls the pool.
    - {e fatal} — {!Faults.Sweep_killed} (the simulated process kill)
      escapes [run]; resume from the journal afterwards. *)

type job_result = {
  spec : Spec.t;
  result : (Pc_adversary.Runner.outcome, string) result;
      (** [Error] carries the captured exception text; one diverging
          job never kills the sweep. *)
  from_cache : bool;
  from_journal : bool;  (** replayed from the checkpoint journal *)
  attempts : int;
      (** execution attempts this run; [0] for cache/journal hits *)
  elapsed : float;  (** seconds spent executing; [0.] for hits *)
  bundle : string option;
      (** repro-bundle directory when the job died on a triaged oracle
          violation (see {!Pc_audit.Report}) *)
}

type summary = {
  total : int;
  executed : int;
  cached : int;
  resumed : int;  (** jobs replayed from the checkpoint journal *)
  recovered : int;
      (** invalid (truncated, garbage, stale-format, digest-collision)
          cache entries that were detected, logged and re-executed —
          silent cache rot made visible *)
  retried : int;  (** extra execution attempts across all jobs *)
  failed : int;
  violations : int;  (** jobs that died on a triaged oracle violation *)
  bundles : string list;  (** their repro-bundle directories *)
  wall : float;  (** wall-clock seconds for the whole sweep *)
}

val run :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?checkpoint:Checkpoint.t ->
  ?retries:int ->
  ?timeout:float ->
  ?backoff:float ->
  ?faults:Faults.t ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  Spec.t list ->
  job_result list * summary
(** [jobs] (default 1) caps the worker-domain count; [jobs <= 1] runs
    inline on the calling domain. Omitting [cache] disables caching;
    omitting [checkpoint] disables journaling. [retries] (default 0)
    bounds transient-failure re-attempts per job; [timeout] is the
    per-attempt wall-clock budget in seconds (checked post-hoc — a
    pure simulation cannot be preempted); [backoff] (default 0.1)
    seeds the exponential backoff base in seconds. [faults] injects
    seeded chaos at job and cache boundaries (see {!Faults}). Results
    come back in input order.

    [audit] attaches the {!Pc_audit.Oracle} layer to every executed
    job (at [Full] this also enables PF's internal Claim 4.16 audit;
    full-strength PF specs additionally get the Theorem 1 floor). A
    violating job is deterministic by definition — it degrades to
    [Error] without probe or retry, its repro bundle (written under
    [failures_dir], default {!Pc_audit.Report.default_dir}) rides on
    {!job_result.bundle}, and the summary counts it in
    {!summary.violations}. The audit level is not part of the spec's
    cache identity: audited and unaudited runs of the same spec share
    cache entries (auditing changes what is checked, never the
    outcome) — use a fresh cache or [--no-cache] to force audited
    re-execution of previously cached points. *)

val execute : Spec.t -> job_result
(** Run one spec on the calling domain, bypassing cache, journal and
    retries. *)

val execute_with_retries :
  ?faults:Faults.t ->
  ?retries:int ->
  ?timeout:float ->
  ?backoff:float ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  Spec.t ->
  job_result
(** The per-job attempt loop [run] uses, exposed for tests. *)

val outcome_exn : job_result -> Pc_adversary.Runner.outcome
(** Raises [Failure] with the captured error text on a failed job. *)

val pp_summary : Format.formatter -> summary -> unit
