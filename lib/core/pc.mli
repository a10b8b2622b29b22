(** Partial-compaction bounds and simulators — public facade.

    Reproduction of Cohen & Petrank, {e Limitations of Partial
    Compaction: Towards Practical Bounds}, PLDI 2013.

    Layers:
    - substrate: {!Heap}, {!Free_index} (each with an imperative and a
      reference backend, see {!Backend}), {!Budget}, {!Metrics},
      {!Trace}, {!Layout};
    - memory managers: {!Manager}, {!Managers} (registry of
      first/best/next/worst fit, buddy, segregated, aligned fit, and
      the c-partial compactors);
    - the interaction model and adversaries: {!Driver}, {!Program},
      {!Runner}, {!Robson_pr}, {!Pf}, {!Random_workload};
    - closed-form bounds: {!Bounds};
    - the parallel sweep engine with its result cache: {!Exec};
    - self-auditing runs: runtime oracles, the backend-divergence
      watchdog and trace-shrinking failure triage: {!Audit};
    - process-wide instruments behind a zero-cost-when-disabled sink:
      {!Telemetry}. *)

module Backend = Pc_heap.Backend
module Word = Pc_heap.Word
module Interval = Pc_heap.Interval
module Oid = Pc_heap.Oid
module Free_index = Pc_heap.Free_index
module Heap = Pc_heap.Heap
module Budget = Pc_heap.Budget
module Metrics = Pc_heap.Metrics
module Trace = Pc_heap.Trace
module Layout = Pc_heap.Layout
module Ctx = Pc_manager.Ctx
module Manager = Pc_manager.Manager
module Managers = Pc_manager.Registry
module Driver = Pc_adversary.Driver
module Program = Pc_adversary.Program
module Runner = Pc_adversary.Runner
module Robson_pr = Pc_adversary.Robson_pr
module Pf = Pc_adversary.Pf
module Pw = Pc_adversary.Pw
module Random_workload = Pc_adversary.Random_workload
module Sawtooth = Pc_adversary.Sawtooth
module Reduction = Pc_adversary.Reduction
module Script = Pc_adversary.Script

(** Self-auditing runs: composable runtime oracles ({!Audit.Oracle}),
    ddmin trace minimization ({!Audit.Shrink}) and replayable repro
    bundles with the shared exit-code taxonomy ({!Audit.Report}). *)
module Audit : sig
  module Oracle = Pc_audit.Oracle
  module Shrink = Pc_audit.Shrink
  module Report = Pc_audit.Report
end

(** The sweep engine: deterministic job specs, a [Domain] worker pool,
    and the content-addressed on-disk result cache. *)
module Exec : sig
  module Spec = Pc_exec.Spec
  module Pool = Pc_exec.Pool
  module Cache = Pc_exec.Cache
  module Checkpoint = Pc_exec.Checkpoint
  module Faults = Pc_exec.Faults
  module Engine = Pc_exec.Engine
  module Lockfile = Pc_exec.Lockfile
end

(** Low-overhead process-wide instruments — monotonic counters, gauges,
    log2 histograms, nestable timed spans — interned by name in
    {!Telemetry.Registry} and snapshotted into the stable
    [pc-telemetry/1] schema for [pc report]. Disabled (the default)
    every instrument is a load-and-branch no-op; levels only observe,
    so results are bit-identical across them. *)
module Telemetry : sig
  module Sink = Pc_telemetry.Sink
  module Counter = Pc_telemetry.Counter
  module Gauge = Pc_telemetry.Gauge
  module Histogram = Pc_telemetry.Histogram
  module Span = Pc_telemetry.Span
  module Registry = Pc_telemetry.Registry
  module Snapshot = Pc_telemetry.Snapshot
  module Report = Pc_telemetry.Report
end

module Bounds : sig
  module Robson = Pc_bounds.Robson
  module Bendersky_petrank = Pc_bounds.Bendersky_petrank
  module Cohen_petrank = Pc_bounds.Cohen_petrank
  module Theorem2 = Pc_bounds.Theorem2
  module Params = Pc_bounds.Params
end

type pf_report = {
  outcome : Runner.outcome;
  config : Pf.config;
  theory_h : float;  (** Theorem 1 waste factor at these parameters *)
}

val run_pf :
  ?backend:Pc_heap.Backend.t ->
  ?ell:int ->
  ?audit:Pc_audit.Oracle.level ->
  ?failures_dir:string ->
  m:int ->
  n:int ->
  c:float ->
  manager:string ->
  unit ->
  pf_report
(** Run the paper's adversary [P_F] against a manager from
    {!Managers}, under the c-partial budget. [audit] (default [Off])
    attaches the oracle layer including the Theorem 1 floor; at [Full]
    it also enables PF's internal Claim 4.16 potential audit. On a
    violation the run raises {!Audit.Report.Reported} with the repro
    bundle (written under [failures_dir]). *)

type robson_report = {
  outcome : Runner.outcome;
  theory_waste : float;  (** Robson's matching bound divided by [M] *)
}

val run_robson :
  ?backend:Pc_heap.Backend.t ->
  ?steps:int ->
  m:int ->
  n:int ->
  manager:string ->
  unit ->
  robson_report
(** Run Robson's adversary [P_R] against a manager from {!Managers},
    with no compaction budget. *)
