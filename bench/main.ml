(* Benchmark harness: regenerates every data figure of the paper plus
   the simulation validation tables, then times the generators with
   Bechamel.

     dune exec bench/main.exe                       all series + timings
     dune exec bench/main.exe fig1 sim-lower        a selection
     dune exec bench/main.exe -- --no-timing        series only
     dune exec bench/main.exe -- sim-fig1 -j 8      8 worker domains
     dune exec bench/main.exe -- --small            toy scales (quick)
     dune exec bench/main.exe -- --json BENCH_results.json
     dune exec bench/main.exe -- --backend ref      persistent substrate A/B
     dune exec bench/main.exe -- --telemetry full   instrument the whole run;
                                                    the snapshot lands in the
                                                    --json report entry

   Every simulated experiment (sim-*, ablation) runs through the
   Pc.Exec sweep engine: points execute on a Domain worker pool
   (--jobs N / -j N) and completed points are cached on disk keyed by
   the job spec (_pc_cache/ by default; --no-cache bypasses,
   --cache-dir relocates), so a re-run only executes new points.

   Fault tolerance: each sweep journals outcomes to
   <cache-dir>/sweeps/ as they land, so a run killed mid-sweep resumes
   with --resume; --retries N / --timeout S bound transient failures;
   --inject-faults SPEC (e.g. "crash=0.3,trunc=0.2,seed=7") drives the
   chaos mode and makes the harness exit nonzero if any point is left
   unrecovered.

   Experiments (see DESIGN.md section 4):
     fig1        lower bound h vs c (this paper vs [4] vs trivial)
     fig2        lower bound h vs n (c = 100, M = 256n)
     fig3        upper bound vs c (Theorem 2 vs prior best)
     sim-lower   measured HS(A, PF)/M vs Theorem 1 h, per c
     sim-upper   measured HS(A, PR)/M vs Robson's bound, per n;
                 upper-bound managers vs their guarantees
     sim-average random-workload fragmentation per manager
     sim-fig1    measured waste-vs-c curve (the simulated Figure 1)
     ablation    design-choice ablations A1-A4 (see EXPERIMENTS.md)
     sim-zoo     literature managers (meshing, compact-fit,
                 cost-oblivious, polylog-realloc) vs the paper's bounds
*)

open Pc_core
open Bechamel
module Spec = Pc.Exec.Spec
module Engine = Pc.Exec.Engine
module Cache = Pc.Exec.Cache
module Json = Pc_json.Json

let line fmt = Fmt.pr (fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Options                                                            *)

type opts = {
  jobs : int;
  cache : Cache.t option;
  cache_dir : string;
      (* resolved directory: journals live under <cache_dir>/sweeps
         even when --no-cache disables the result cache itself *)
  json_path : string option;
  small : bool;  (* toy scales: quick smoke runs, CI *)
  no_timing : bool;
  selected : string list;
  resume : bool;  (* replay journaled outcomes of a killed run *)
  retries : int;
  timeout : float option;
  faults : Pc.Exec.Faults.t option;  (* chaos mode *)
  audit : Pc.Audit.Oracle.level;  (* runtime oracles on every point *)
  failures_dir : string option;  (* where repro bundles land *)
  telemetry : Pc.Telemetry.Sink.level;
      (* instruments the whole harness run; the snapshot rides on the
         --json report entry *)
}

(* Under --inject-faults any point left failed means the fault layer
   beat the recovery machinery: report it through the exit code so CI
   can assert zero unrecovered failures. *)
let unrecovered = ref false

(* Under --audit any triaged oracle violation flips the exit code to
   the shared taxonomy's code 3; the bundle paths ride on the sweep
   summaries. *)
let violated = ref false

(* Machine-readable report accumulators (--json). *)
let sweep_records : Json.t list ref = ref []
let timing_records : Json.t list ref = ref []

let record_sweep name (s : Engine.summary) =
  sweep_records :=
    Json.Obj
      [
        ("name", Json.String name);
        ("points", Json.Int s.total);
        ("executed", Json.Int s.executed);
        ("cached", Json.Int s.cached);
        ("resumed", Json.Int s.resumed);
        ("recovered", Json.Int s.recovered);
        ("retried", Json.Int s.retried);
        ("failed", Json.Int s.failed);
        ("violations", Json.Int s.violations);
        ("wall_s", Json.Float s.wall);
      ]
    :: !sweep_records

(* Run one sweep through the engine and return a lookup from spec to
   its result. Every simulated table below builds its full grid first,
   runs it in one engine call (maximal parallelism), then renders.
   When a cache directory is in play each sweep also keeps a
   checkpoint journal under <cache-dir>/sweeps/, so a run killed
   mid-sweep resumes with --resume instead of re-executing finished
   points. *)
let run_sweep opts name specs =
  let checkpoint =
    Pc.Exec.Checkpoint.open_ ~resume:opts.resume
      ~dir:(Pc.Exec.Checkpoint.default_dir ~cache_dir:opts.cache_dir)
      specs
  in
  let results, summary =
    Fun.protect
      ~finally:(fun () -> Pc.Exec.Checkpoint.close checkpoint)
      (fun () ->
        Engine.run ~jobs:opts.jobs ?cache:opts.cache ~checkpoint
          ~retries:opts.retries ?timeout:opts.timeout ?faults:opts.faults
          ~audit:opts.audit ?failures_dir:opts.failures_dir specs)
  in
  line "    [%s: %a]" name Engine.pp_summary summary;
  if opts.faults <> None && summary.failed > 0 then unrecovered := true;
  if summary.violations > 0 then violated := true;
  record_sweep name summary;
  let tbl = Hashtbl.create (2 * List.length specs) in
  List.iter
    (fun (r : Engine.job_result) ->
      Hashtbl.replace tbl (Spec.key r.spec) r.result)
    results;
  fun spec ->
    match Hashtbl.find_opt tbl (Spec.key spec) with
    | Some res -> res
    | None -> Error "spec was not part of this sweep"

let hs_over_m = function
  | Ok (o : Pc.Runner.outcome) -> o.hs_over_m
  | Error _ -> Float.nan

(* ------------------------------------------------------------------ *)
(* Figure 1                                                           *)

let fig1_series () =
  List.map
    (fun c ->
      let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig1 ~c in
      ( c,
        Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c,
        Pc.Bounds.Bendersky_petrank.waste_factor ~m ~n ~c ))
    Pc.Bounds.Params.fig1_cs

let fig1 () =
  line "=== Figure 1: lower bound on the waste factor h vs c ===";
  line
    "    (M = 256MB, n = 1MB; paper anchors: ~2.0 at c=10, ~3.15 at c=50, \
     ~3.5 at c=100)";
  line "%6s  %12s  %18s  %8s" "c" "this paper" "Bendersky-Petrank" "trivial";
  List.iter
    (fun (c, ours, bp) -> line "%6.0f  %12.3f  %18.3f  %8.1f" c ours bp 1.0)
    (fig1_series ())

(* ------------------------------------------------------------------ *)
(* Figure 2                                                           *)

let fig2_series () =
  List.map
    (fun n ->
      let { Pc.Bounds.Params.m; n; c } = Pc.Bounds.Params.fig2 ~n in
      (n, Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c))
    Pc.Bounds.Params.fig2_ns

let fig2 () =
  line "=== Figure 2: lower bound on the waste factor h vs n ===";
  line "    (c = 100, M = 256n)";
  line "%10s  %10s" "n" "h";
  List.iter
    (fun (n, h) -> line "%10s  %10.3f" (Fmt.str "%a" Pc.Word.pp_count n) h)
    (fig2_series ())

(* ------------------------------------------------------------------ *)
(* Figure 3                                                           *)

let fig3_series () =
  List.filter_map
    (fun c ->
      let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig3 ~c in
      if Pc.Bounds.Theorem2.applicable ~n ~c then
        Some
          ( c,
            Pc.Bounds.Theorem2.waste_factor ~m ~n ~c,
            Pc.Bounds.Theorem2.prior_best ~m ~n ~c /. float_of_int m )
      else None)
    Pc.Bounds.Params.fig3_cs

let fig3 () =
  line "=== Figure 3: upper bound on the waste factor vs c ===";
  line "    (M = 256MB, n = 1MB; reconstruction — see EXPERIMENTS.md)";
  line "%6s  %12s  %12s  %12s" "c" "Theorem 2" "prior best" "improvement";
  List.iter
    (fun (c, t2, prior) ->
      line "%6.0f  %12.3f  %12.3f  %11.1f%%" c t2 prior
        (100.0 *. (prior -. t2) /. prior))
    (fig3_series ())

(* ------------------------------------------------------------------ *)
(* Table S1: PF vs c-partial managers, measured vs theory             *)

let sim_lower opts =
  let m, n = if opts.small then (1 lsl 16, 1 lsl 8) else (1 lsl 22, 1 lsl 11) in
  let cs = [ 8.0; 16.0; 32.0; 64.0 ] in
  let managers = [ "compacting"; "improved-ac"; "first-fit" ] in
  let spec c manager = Spec.pf ~c ~manager ~m ~n () in
  line "=== Table S1: measured HS(A, PF)/M vs Theorem 1 (M=%d, n=%d) ===" m n;
  line "    (theory: no c-partial manager can stay below h at scale)";
  let find =
    run_sweep opts "sim-lower"
      (List.concat_map (fun c -> List.map (spec c) managers) cs)
  in
  line "%6s %4s %10s | %12s %12s %10s" "c" "l" "theory h" "compacting"
    "improved-ac" "first-fit";
  List.iter
    (fun c ->
      let cfg = Pc.Pf.config ~m ~n ~c () in
      let v manager = hs_over_m (find (spec c manager)) in
      line "%6.0f %4d %10.3f | %12.3f %12.3f %10.3f" c cfg.ell
        (Float.max cfg.h 1.0) (v "compacting") (v "improved-ac")
        (v "first-fit"))
    cs

(* ------------------------------------------------------------------ *)
(* Table S2: Robson's PR vs managers, measured vs matching bound      *)

let sim_upper opts =
  let m = if opts.small then 1 lsl 14 else 1 lsl 16 in
  let ns = [ 1 lsl 4; 1 lsl 6; 1 lsl 8 ] in
  let managers = [ "first-fit"; "aligned-fit"; "buddy"; "best-fit" ] in
  let robson_spec n manager = Spec.robson ~manager ~m ~n () in
  let pf_n = 1 lsl 6 in
  let pf_spec manager = Spec.pf ~c:8.0 ~manager ~m ~n:pf_n () in
  line "=== Table S2: measured HS(A, PR)/M vs Robson's matching bound \
        (M=%d) ===" m;
  line "    (every non-moving manager must be >= the bound; A_o meets it)";
  let find =
    run_sweep opts "sim-upper"
      (List.concat_map (fun n -> List.map (robson_spec n) managers) ns
      @ [ pf_spec "bp-simple"; pf_spec "improved-ac" ])
  in
  line "%8s %10s | %10s %12s %10s %10s" "n" "bound" "first-fit" "aligned-fit"
    "buddy" "best-fit";
  List.iter
    (fun n ->
      let bound = Pc.Bounds.Robson.waste_factor_pow2 ~m ~n in
      let v manager = hs_over_m (find (robson_spec n manager)) in
      line "%8d %10.3f | %10.3f %12.3f %10.3f %10.3f" n bound (v "first-fit")
        (v "aligned-fit") (v "buddy") (v "best-fit"))
    ns;
  line "";
  line "    upper-bound managers vs their guarantees (PF workload, c = 8):";
  let bp = hs_over_m (find (pf_spec "bp-simple")) in
  line "    bp-simple: HS/M = %.3f <= (c+1) = %.1f  [%s]" bp 9.0
    (if bp <= 9.0 then "ok" else "VIOLATED");
  (* Theorem 2's side condition needs c > log(n)/2 = 3: report the
     Theorem-2-inspired manager against the (reconstructed) bound. At
     simulation scale the bound is far from tight — reported for
     completeness, not asserted. *)
  line "    improved-ac: HS/M = %.3f (Theorem 2 reconstruction: %.3f)"
    (hs_over_m (find (pf_spec "improved-ac")))
    (Pc.Bounds.Theorem2.waste_factor ~m ~n:pf_n ~c:8.0)

(* ------------------------------------------------------------------ *)
(* Table S3: random workloads — the average case                      *)

let sim_average opts =
  let m = if opts.small then 1 lsl 14 else 1 lsl 16 in
  let churn = 20_000 in
  let spec manager =
    Spec.random_churn ~seed:7 ~churn ~c:8.0 ~manager ~m
      ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = 6 })
      ~target_live:(m / 2) ()
  in
  line "=== Table S3: random churn (M=%d): fragmentation by manager ===" m;
  line "    (average case — far from the adversarial worst case)";
  let keys = List.map (fun (e : Pc.Managers.entry) -> e.key) (Pc.Managers.entries ()) in
  let find = run_sweep opts "sim-average" (List.map spec keys) in
  line "%-12s %10s %10s %10s" "manager" "HS/M" "HS/live" "moved";
  List.iter
    (fun key ->
      match find (spec key) with
      | Ok o ->
          line "%-12s %10.3f %10.3f %10d" key o.hs_over_m
            (float_of_int o.hs /. float_of_int (max 1 o.final_live))
            o.moved
      | Error msg -> line "%-12s failed: %s" key msg)
    keys

(* ------------------------------------------------------------------ *)
(* Simulated Figure 1: the lower-bound curve, measured               *)

let sim_fig1 opts =
  let m, n = if opts.small then (1 lsl 15, 1 lsl 7) else (1 lsl 22, 1 lsl 11) in
  let cs = [ 6.0; 8.0; 12.0; 16.0; 24.0; 32.0; 48.0; 64.0 ] in
  let managers = [ "compacting"; "improved-ac"; "sliding"; "bp-simple" ] in
  let spec c manager = Spec.pf ~c ~manager ~m ~n () in
  line "=== Simulated Figure 1: measured waste vs c (M=%d, n=%d) ===" m n;
  line
    "    (best = the smallest HS/M any of our c-partial managers achieves \
     against PF; theory says best >= h)";
  let find =
    run_sweep opts "sim-fig1"
      (List.concat_map (fun c -> List.map (spec c) managers) cs)
  in
  line "%6s %10s %10s %14s" "c" "theory h" "best" "best manager";
  List.iter
    (fun c ->
      let candidates =
        List.filter_map
          (fun key ->
            match find (spec c key) with
            | Ok o -> Some (o.hs_over_m, key)
            | Error _ -> None (* invalid parameters at this point *))
          managers
      in
      let best, key = List.fold_left min (Float.infinity, "-") candidates in
      line "%6g %10.3f %10.3f %14s" c
        (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c)
        best key)
    cs

(* ------------------------------------------------------------------ *)
(* Ablations: how much each design choice of P_F contributes          *)

let ablation opts =
  let m, n = if opts.small then (1 lsl 15, 1 lsl 7) else (1 lsl 17, 1 lsl 9) in
  let spec ?ell ?stage1_steps ?maintain_density ~manager c =
    Spec.pf ?ell ?stage1_steps ?maintain_density ~c ~manager ~m ~n ()
  in
  let a1_ells =
    List.filter
      (fun ell -> Pc.Bounds.Cohen_petrank.h ~m ~n ~c:32.0 ~ell <> None)
      [ 1; 2 ]
  in
  let moving =
    List.filter_map
      (fun (e : Pc.Managers.entry) -> if e.moving then Some e.key else None)
      (Pc.Managers.entries ())
  in
  let specs =
    List.map (fun ell -> spec ~ell ~manager:"compacting" 32.0) a1_ells
    @ List.concat_map
        (fun c ->
          [
            spec ~manager:"compacting" c;
            spec ~maintain_density:false ~manager:"compacting" c;
            spec ~stage1_steps:0 ~manager:"compacting" c;
          ])
        [ 16.0; 32.0 ]
    @ List.map (fun key -> spec ~manager:key 16.0) moving
  in
  line "=== Ablations (M=%d, n=%d) ===" m n;
  let find = run_sweep opts "ablation" specs in
  let v s = hs_over_m (find s) in
  line "";
  line "=== Ablation A1: the density exponent l (c = 32) ===";
  line "    (Theorem 1 optimises l; the empirical optimum should agree)";
  let best_ell =
    match Pc.Bounds.Cohen_petrank.best ~m ~n ~c:32.0 with
    | Some { ell; _ } -> ell
    | None -> 0
  in
  List.iter
    (fun ell ->
      match Pc.Bounds.Cohen_petrank.h ~m ~n ~c:32.0 ~ell with
      | Some h ->
          line "    l=%d%s  theory h=%6.3f  measured HS/M=%6.3f" ell
            (if ell = best_ell then "*" else " ")
            (Float.max h 1.0)
            (v (spec ~ell ~manager:"compacting" 32.0))
      | None -> line "    l=%d   (invalid at these parameters)" ell)
    [ 1; 2 ];
  line "";
  line "=== Ablation A2: stage 2 density maintenance (line 13) ===";
  List.iter
    (fun c ->
      line "    c=%-3g  with density: %6.3f   without: %6.3f" c
        (v (spec ~manager:"compacting" c))
        (v (spec ~maintain_density:false ~manager:"compacting" c)))
    [ 16.0; 32.0 ];
  line "";
  line "=== Ablation A3: the Robson stage (stage 1) ===";
  List.iter
    (fun c ->
      line "    c=%-3g  full stage 1: %6.3f   unit fill only: %6.3f" c
        (v (spec ~manager:"compacting" c))
        (v (spec ~stage1_steps:0 ~manager:"compacting" c)))
    [ 16.0; 32.0 ];
  line "";
  line "=== Ablation A4: which manager resists P_F best (c = 16) ===";
  line "    (Theorem 1 floors them all; smaller HS/M = closer to the floor)";
  let floor16 = Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c:16.0 in
  line "    theory floor h = %.3f" floor16;
  List.iter
    (fun key ->
      match find (spec ~manager:key 16.0) with
      | Ok o ->
          line "    %-12s HS/M=%6.3f  moved=%-7d %s" key o.hs_over_m o.moved
            (if o.hs_over_m >= floor16 -. 0.02 then "(floor respected)"
             else "(BELOW FLOOR?)")
      | Error msg -> line "    %-12s failed: %s" key msg)
    moving

(* ------------------------------------------------------------------ *)
(* Table S4: the literature zoo vs the paper's bounds                  *)

(* The four managers adapted from the related literature (meshing,
   compact-fit, cost-oblivious resizing, polylog reallocation), run
   against the same three workloads as the classics — PF at two cs,
   Robson's PR, and random churn — and reported next to the Theorem 1
   floor and the Theorem 2 ceiling. Every point also lands as a row in
   the --json report's "zoo" list, so BENCH_results.json tracks
   HS/M-vs-bounds for the zoo PR-over-PR. *)

let zoo_managers =
  [ "meshing"; "compact-fit"; "cost-oblivious"; "polylog-realloc" ]

let zoo_records : Json.t list ref = ref []

let record_zoo ?c ?floor ?ceiling ?robson ~workload ~manager ~m ~n
    (o : Pc.Runner.outcome) =
  let opt = function Some v -> Json.Float v | None -> Json.Null in
  zoo_records :=
    Json.Obj
      [
        ("workload", Json.String workload);
        ("manager", Json.String manager);
        ("m", Json.Int m);
        ("n", Json.Int n);
        ("c", opt c);
        ("hs", Json.Int o.hs);
        ("hs_over_m", Json.Float o.hs_over_m);
        ("moved", Json.Int o.moved);
        ("theorem1_floor", opt floor);
        ("theorem2_ceiling", opt ceiling);
        ("robson_bound", opt robson);
        ("compliant", Json.Bool o.compliant);
      ]
    :: !zoo_records

let sim_zoo opts =
  let m, n = if opts.small then (1 lsl 14, 1 lsl 7) else (1 lsl 16, 1 lsl 8) in
  let cs = [ 8.0; 16.0 ] in
  let churn = if opts.small then 5_000 else 20_000 in
  let churn_n = 1 lsl 6 in
  let pf_spec c manager = Spec.pf ~c ~manager ~m ~n () in
  let robson_spec manager = Spec.robson ~c:8.0 ~manager ~m ~n () in
  let churn_spec manager =
    Spec.random_churn ~seed:7 ~churn ~c:8.0 ~manager ~m
      ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = 6 })
      ~target_live:(m / 2) ()
  in
  line "=== Table S4: literature zoo vs the paper's bounds (M=%d, n=%d) ===" m
    n;
  line
    "    (meshing / compact-fit / cost-oblivious / polylog-realloc; Theorem \
     1 floors every c-partial manager, Theorem 2 caps what compaction must \
     achieve)";
  let find =
    run_sweep opts "sim-zoo"
      (List.concat_map (fun c -> List.map (pf_spec c) zoo_managers) cs
      @ List.map robson_spec zoo_managers
      @ List.map churn_spec zoo_managers)
  in
  line "";
  line "    PF adversary: HS/M per manager";
  line "%6s %8s %8s | %8s %12s %15s %16s" "c" "floor" "T2 cap" "meshing"
    "compact-fit" "cost-oblivious" "polylog-realloc";
  List.iter
    (fun c ->
      let floor = Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c in
      let ceiling =
        if Pc.Bounds.Theorem2.applicable ~n ~c then
          Some (Pc.Bounds.Theorem2.waste_factor ~m ~n ~c)
        else None
      in
      let v manager =
        match find (pf_spec c manager) with
        | Ok o ->
            record_zoo ~workload:"pf" ~manager ~m ~n ~c ~floor ?ceiling o;
            o.hs_over_m
        | Error _ -> Float.nan
      in
      line "%6.0f %8.3f %8s | %8.3f %12.3f %15.3f %16.3f" c floor
        (match ceiling with Some u -> Fmt.str "%.1f" u | None -> "-")
        (v "meshing") (v "compact-fit") (v "cost-oblivious")
        (v "polylog-realloc"))
    cs;
  line "";
  line "    PR adversary (Robson, c = 8): HS/M per manager";
  let robson_bound = Pc.Bounds.Robson.waste_factor_pow2 ~m ~n in
  line "    (Robson's matching bound for non-moving managers: %.3f)"
    robson_bound;
  List.iter
    (fun manager ->
      match find (robson_spec manager) with
      | Ok o ->
          record_zoo ~workload:"robson" ~manager ~m ~n ~c:8.0
            ~robson:robson_bound o;
          line "    %-16s HS/M=%6.3f  moved=%d" manager o.hs_over_m o.moved
      | Error msg -> line "    %-16s failed: %s" manager msg)
    zoo_managers;
  line "";
  line "    random churn (seed 7, c = 8, sizes <= %d): HS/M per manager"
    churn_n;
  let churn_floor =
    Pc.Bounds.Cohen_petrank.waste_factor ~m ~n:churn_n ~c:8.0
  in
  let churn_ceiling =
    if Pc.Bounds.Theorem2.applicable ~n:churn_n ~c:8.0 then
      Some (Pc.Bounds.Theorem2.waste_factor ~m ~n:churn_n ~c:8.0)
    else None
  in
  line "    (adversarial floor h = %.3f — average case sits below it)"
    churn_floor;
  List.iter
    (fun manager ->
      match find (churn_spec manager) with
      | Ok o ->
          record_zoo ~workload:"churn" ~manager ~m ~n:churn_n ~c:8.0
            ~floor:churn_floor ?ceiling:churn_ceiling o;
          line "    %-16s HS/M=%6.3f  HS/live=%6.3f  moved=%d" manager
            o.hs_over_m
            (float_of_int o.hs /. float_of_int (max 1 o.final_live))
            o.moved
      | Error msg -> line "    %-16s failed: %s" manager msg)
    zoo_managers

(* ------------------------------------------------------------------ *)
(* Bechamel timings: one Test per experiment generator                *)

let tests () =
  [
    Test.make ~name:"fig1-series" (Staged.stage fig1_series);
    Test.make ~name:"fig2-series" (Staged.stage fig2_series);
    Test.make ~name:"fig3-series" (Staged.stage fig3_series);
    Test.make ~name:"sim-lower-point-c16"
      (Staged.stage (fun () ->
           Pc.run_pf ~m:(1 lsl 13) ~n:(1 lsl 6) ~manager:"compacting" ~c:16.0
             ()));
    (* Same point pinned to the persistent backend: the in-harness A/B
       for the substrate rewrite. *)
    Test.make ~name:"sim-lower-point-c16-ref"
      (Staged.stage (fun () ->
           Pc.run_pf ~backend:Pc.Backend.Reference ~m:(1 lsl 13) ~n:(1 lsl 6)
             ~manager:"compacting" ~c:16.0 ()));
    (* Same point under the sampled oracle layer: the measured --audit
       overhead (see EXPERIMENTS.md). *)
    Test.make ~name:"sim-lower-point-c16-audit"
      (Staged.stage (fun () ->
           Pc.run_pf ~audit:Pc.Audit.Oracle.Sampled ~m:(1 lsl 13) ~n:(1 lsl 6)
             ~manager:"compacting" ~c:16.0 ()));
    Test.make ~name:"sim-upper-robson"
      (Staged.stage (fun () ->
           Pc.run_robson ~m:(1 lsl 12) ~n:(1 lsl 6) ~manager:"first-fit" ()));
    Test.make ~name:"sim-average-churn"
      (Staged.stage (fun () ->
           let program =
             Pc.Random_workload.program ~seed:7 ~churn:1000 ~m:(1 lsl 12)
               ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = 5 })
               ~target_live:(1 lsl 11) ()
           in
           Pc.Runner.run ~program
             ~manager:(Pc.Managers.construct_exn "first-fit")
             ()));
  ]

let timings () =
  line "";
  line "=== Bechamel timings (OLS estimate of ns/run) ===";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"pc" (tests ()))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> (name, Float.nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      line "%-28s %14.0f ns/run" name est;
      if Float.is_nan est then ()
      else
        timing_records :=
          Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float est) ]
          :: !timing_records)
    rows

(* ------------------------------------------------------------------ *)
(* Machine-readable report                                            *)

(* Provenance: the commit the numbers came from, so entries appended
   PR-over-PR stay attributable. Best-effort — "unknown" outside a git
   checkout. *)
let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      let status = Unix.close_process_in ic in
      if status = Unix.WEXITED 0 && line <> "" then line else "unknown"

let write_json opts =
  match opts.json_path with
  | None -> ()
  | Some path ->
      let entry =
        Json.Obj
          [
            ("unix_time", Json.Float (Unix.gettimeofday ()));
            ("commit", Json.String (git_commit ()));
            ( "backend",
              Json.String (Pc.Backend.to_string (Pc.Backend.default ())) );
            ("ocaml", Json.String Sys.ocaml_version);
            ("jobs", Json.Int opts.jobs);
            ("scale", Json.String (if opts.small then "small" else "default"));
            ("cache", Json.Bool (opts.cache <> None));
            ( "experiments",
              Json.List (List.map (fun s -> Json.String s) opts.selected) );
            ("sweeps", Json.List (List.rev !sweep_records));
            ("zoo", Json.List (List.rev !zoo_records));
            ("timings", Json.List (List.rev !timing_records));
            ( "telemetry",
              if opts.telemetry = Pc.Telemetry.Sink.Off then Json.Null
              else
                Pc.Telemetry.Snapshot.to_json (Pc.Telemetry.Registry.snapshot ())
            );
          ]
      in
      (* Append to the existing report so the perf trajectory is
         tracked run-over-run (and PR-over-PR). *)
      let previous =
        if Sys.file_exists path then begin
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Json.of_string text with
          | exception _ -> []
          | j -> (
              match Option.bind (Json.member "runs" j) Json.to_list with
              | Some runs -> runs
              | None -> [])
        end
        else []
      in
      let report = Json.Obj [ ("runs", Json.List (previous @ [ entry ])) ] in
      (* Atomic like the result cache: a run killed mid-write must not
         destroy the accumulated perf trajectory. *)
      let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
      (try
         let oc = open_out_bin tmp in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () ->
             output_string oc (Json.to_string ~indent:true report);
             output_char oc '\n')
       with e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp path;
      line "";
      line "wrote %s (%d run%s)" path
        (List.length previous + 1)
        (if previous = [] then "" else "s")

(* ------------------------------------------------------------------ *)

let main () =
  (* Simulations churn short-lived lists and closures; the 256k-word
     default minor heap forces constant promotion at these rates. One
     harness-wide bump (both backends alike) keeps the measurements
     about the substrate, not the collector. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
  let rec parse opts no_cache cache_dir = function
    | [] -> (opts, no_cache, cache_dir)
    | ("--jobs" | "-j") :: v :: rest ->
        let jobs =
          match int_of_string_opt v with
          | Some j when j >= 1 -> j
          | Some _ | None -> Fmt.invalid_arg "bad --jobs value %S" v
        in
        parse { opts with jobs } no_cache cache_dir rest
    | "--backend" :: v :: rest ->
        Pc.Backend.set_default (Pc.Backend.of_string_exn v);
        parse opts no_cache cache_dir rest
    | "--no-cache" :: rest -> parse opts true cache_dir rest
    | "--cache-dir" :: d :: rest -> parse opts no_cache (Some d) rest
    | "--resume" :: rest -> parse { opts with resume = true } no_cache cache_dir rest
    | "--retries" :: v :: rest ->
        let retries =
          match int_of_string_opt v with
          | Some r when r >= 0 -> r
          | Some _ | None -> Fmt.invalid_arg "bad --retries value %S" v
        in
        parse { opts with retries } no_cache cache_dir rest
    | "--timeout" :: v :: rest ->
        let timeout =
          match float_of_string_opt v with
          | Some t when t > 0. -> t
          | Some _ | None -> Fmt.invalid_arg "bad --timeout value %S" v
        in
        parse { opts with timeout = Some timeout } no_cache cache_dir rest
    | "--inject-faults" :: v :: rest ->
        let faults =
          match Pc.Exec.Faults.of_string v with
          | Ok f -> f
          | Error msg -> Fmt.invalid_arg "bad --inject-faults spec: %s" msg
        in
        parse { opts with faults = Some faults } no_cache cache_dir rest
    | "--audit" :: v :: rest ->
        let audit = Pc.Audit.Oracle.level_of_string_exn v in
        parse { opts with audit } no_cache cache_dir rest
    | "--failures-dir" :: d :: rest ->
        parse { opts with failures_dir = Some d } no_cache cache_dir rest
    | "--telemetry" :: v :: rest ->
        let telemetry = Pc.Telemetry.Sink.of_string_exn v in
        parse { opts with telemetry } no_cache cache_dir rest
    | "--json" :: p :: rest ->
        parse { opts with json_path = Some p } no_cache cache_dir rest
    | "--small" :: rest -> parse { opts with small = true } no_cache cache_dir rest
    | "--no-timing" :: rest ->
        parse { opts with no_timing = true } no_cache cache_dir rest
    | a :: rest ->
        parse { opts with selected = opts.selected @ [ a ] } no_cache cache_dir rest
  in
  let opts, no_cache, cache_dir =
    parse
      {
        jobs = 1;
        cache = None;
        cache_dir = Cache.default_dir ();
        json_path = None;
        small = false;
        no_timing = false;
        selected = [];
        resume = false;
        retries = 2;
        timeout = None;
        faults = None;
        audit = Pc.Audit.Oracle.Off;
        failures_dir = None;
        telemetry = Pc.Telemetry.Sink.Off;
      }
      false None
      (List.tl (Array.to_list Sys.argv))
  in
  let opts =
    {
      opts with
      cache = (if no_cache then None else Some (Cache.create ?dir:cache_dir ()));
      cache_dir =
        (match cache_dir with Some d -> d | None -> Cache.default_dir ());
    }
  in
  Pc.Telemetry.Registry.set_level opts.telemetry;
  let wants name =
    match opts.selected with [] -> true | sel -> List.mem name sel
  in
  if wants "fig1" then fig1 ();
  if wants "fig2" then fig2 ();
  if wants "fig3" then fig3 ();
  if wants "sim-lower" then sim_lower opts;
  if wants "sim-upper" then sim_upper opts;
  if wants "sim-average" then sim_average opts;
  if wants "sim-fig1" then sim_fig1 opts;
  if wants "ablation" then ablation opts;
  if wants "sim-zoo" then sim_zoo opts;
  if (not opts.no_timing) && (opts.selected = [] || wants "timings") then
    timings ();
  write_json opts;
  if !violated then begin
    line "";
    line "FAIL: oracle violations were triaged (bundle paths in the \
          summaries above)";
    exit Pc.Audit.Report.exit_violation
  end;
  if !unrecovered then begin
    line "";
    line "FAIL: injected faults left unrecovered failures (see summaries)";
    exit 1
  end

(* Exit-code taxonomy shared with the pc CLI: 2 usage, 3 oracle
   violation, 4 internal. *)
let () =
  match main () with
  | () -> ()
  | exception Pc.Audit.Report.Reported b ->
      Fmt.epr "%a@." Pc.Audit.Report.pp_bundle b;
      exit Pc.Audit.Report.exit_violation
  | exception Pc.Audit.Oracle.Violation v ->
      Fmt.epr "%a@." Pc.Audit.Oracle.pp_violation v;
      exit Pc.Audit.Report.exit_violation
  | exception Invalid_argument msg ->
      Fmt.epr "bench: %s@." msg;
      exit Pc.Audit.Report.exit_usage
  | exception e ->
      Fmt.epr "bench: internal error: %s@." (Printexc.to_string e);
      exit Pc.Audit.Report.exit_internal
