(* pc — command-line interface to the partial-compaction bounds and
   simulators.

     pc bounds   -m 256M -n 1M -c 50          closed-form bounds
     pc figure   1|2|3                        CSV series of a figure
     pc simulate --program pf --manager compacting -m 16K -n 64 -c 8
     pc diagram  -m 256 -n 16                 ASCII heap rendering
     pc managers                              list known managers
*)

open Pc_core
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                            *)

(* Sizes accept K/M/G suffixes: "256M" = 256 * 2^20 words. *)
let size_conv =
  let parse s =
    let len = String.length s in
    if len = 0 then Error (`Msg "empty size")
    else begin
      let mult, digits =
        match s.[len - 1] with
        | 'k' | 'K' -> (1 lsl 10, String.sub s 0 (len - 1))
        | 'm' | 'M' -> (1 lsl 20, String.sub s 0 (len - 1))
        | 'g' | 'G' -> (1 lsl 30, String.sub s 0 (len - 1))
        | _ -> (1, s)
      in
      match int_of_string_opt digits with
      | Some v when v > 0 -> Ok (v * mult)
      | Some _ | None -> Error (`Msg ("bad size: " ^ s))
    end
  in
  let print ppf v = Pc.Word.pp_count ppf v in
  Arg.conv (parse, print)

let m_arg =
  Arg.(
    value
    & opt size_conv (256 * Pc.Bounds.Params.mb)
    & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M (K/M/G suffixes).")

let n_arg =
  Arg.(
    value
    & opt size_conv Pc.Bounds.Params.mb
    & info [ "n" ] ~docv:"WORDS"
        ~doc:"Largest object size n, a power of two (K/M/G suffixes).")

let c_arg =
  Arg.(
    value & opt float 50.0
    & info [ "c" ] ~docv:"C" ~doc:"Compaction bound: at most 1/c of allocated words may be moved.")

let manager_arg =
  let keys = String.concat ", " (Pc.Managers.keys ()) in
  Arg.(
    value & opt string "compacting"
    & info [ "manager" ] ~docv:"NAME" ~doc:("Memory manager: " ^ keys ^ "."))

let backend_arg =
  let backend_conv = Arg.conv (Pc.Backend.of_string, Pc.Backend.pp) in
  Arg.(
    value
    & opt backend_conv (Pc.Backend.default ())
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Heap substrate: $(b,imperative) (the fast flat/radix default) or \
           $(b,reference) (the persistent oracle). Also settable via \
           $(b,PC_HEAP_BACKEND).")

let audit_arg =
  let level_conv =
    Arg.conv (Pc.Audit.Oracle.level_of_string, Pc.Audit.Oracle.pp_level)
  in
  Arg.(
    value
    & opt level_conv Pc.Audit.Oracle.Off
    & info [ "audit" ] ~docv:"LEVEL"
        ~doc:
          "Runtime oracle level: $(b,off), $(b,sampled) (budget and \
           live-space rules every event, the O(live) structural sweep one \
           event in --audit-every), $(b,full) (structural sweep every event \
           plus PF's Claim 4.16 potential audit), or $(b,differential) \
           (sampled, plus a shadow heap on the opposite substrate mirroring \
           every event — fails at the first diverging event). On a \
           violation the recorded trace is delta-debugged into a repro \
           bundle and the exit code is 3.")

let audit_every_arg =
  Arg.(
    value & opt int 64
    & info [ "audit-every" ] ~docv:"N"
        ~doc:"Structural-sweep sampling period for --audit sampled and \
              differential.")

let failures_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failures-dir" ] ~docv:"DIR"
        ~doc:
          "Where repro bundles are written (default: $(b,PC_FAILURES_DIR) \
           or $(b,_pc_failures)).")

let telemetry_arg =
  let level_conv =
    Arg.conv (Pc.Telemetry.Sink.of_string, Pc.Telemetry.Sink.pp)
  in
  Arg.(
    value
    & opt level_conv Pc.Telemetry.Sink.Off
    & info [ "telemetry" ] ~docv:"LEVEL"
        ~doc:
          "Instrumentation level: $(b,off) (the default; the disabled \
           path is measurably free), $(b,summary) (counters, gauges and \
           timed spans), or $(b,full) (additionally per-event histograms: \
           allocation sizes, gap-scan work, the HS/M trajectory). \
           Telemetry only observes — results are bit-identical across \
           levels.")

let telemetry_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry-out" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry snapshot as JSON (schema \
           $(b,pc-telemetry/1)) to $(docv) — feed it to $(b,pc report). \
           Without this flag a non-off level renders the report on stdout \
           after the run.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the outcome as JSON on stdout instead of the human table. \
           The output is deterministic (no wall-clock fields), so it is \
           diffable across runs.")

(* Runs [f] at the requested telemetry level, then lands the snapshot:
   to [out] as schema-tagged JSON, or rendered on stdout. A violation
   escapes as an exception (exit code 3) without a snapshot — the repro
   bundle is the artefact that matters on that path. *)
let with_telemetry level out f =
  Pc.Telemetry.Registry.set_level level;
  let result = f () in
  (if level <> Pc.Telemetry.Sink.Off then
     let snap = Pc.Telemetry.Registry.snapshot () in
     match out with
     | Some path ->
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () ->
             output_string oc
               (Pc_json.Json.to_string (Pc.Telemetry.Snapshot.to_json snap));
             output_char oc '\n');
         Fmt.epr "telemetry snapshot written to %s@." path
     | None -> Fmt.pr "@.%a@." (fun ppf -> Pc.Telemetry.Report.pp ppf) snap);
  result

(* The exit-code taxonomy shared with bench (documented in every
   subcommand's --help; CI keys off code 3). *)
let exits =
  [
    Cmd.Exit.info Pc.Audit.Report.exit_ok ~doc:"on success.";
    Cmd.Exit.info Pc.Audit.Report.exit_usage
      ~doc:
        "on usage errors: unparseable command lines, unknown programs, \
         managers or audit levels, invalid parameters, unreadable repro \
         bundles.";
    Cmd.Exit.info Pc.Audit.Report.exit_violation
      ~doc:
        "on an oracle violation (c-partial budget, live-space bound, \
         structural invariant, backend divergence, theory floor, PF \
         potential): a repro bundle has been emitted, its path printed. \
         $(b,pc replay) exits with this code when the bundle's violation \
         reproduces.";
    Cmd.Exit.info Pc.Audit.Report.exit_internal
      ~doc:"on internal errors (unexpected exceptions).";
  ]

(* ------------------------------------------------------------------ *)
(* pc bounds                                                          *)

let bounds_cmd =
  let run m n c =
    let mf = float_of_int m in
    Fmt.pr "parameters: M=%a n=%a c=%g@." Pc.Word.pp_count m Pc.Word.pp_count
      n c;
    Fmt.pr "@.lower bounds (no manager can beat these):@.";
    Fmt.pr "  Robson (no compaction)      HS >= %.3f x M@."
      (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n);
    (match Pc.Bounds.Cohen_petrank.best ~m ~n ~c with
    | Some { ell; h } ->
        Fmt.pr "  Theorem 1 (this paper)      HS >= %.3f x M   (l*=%d)@."
          (Float.max h 1.0) ell
    | None ->
        Fmt.pr "  Theorem 1 (this paper)      HS >= 1.000 x M   (no valid l)@.");
    Fmt.pr "  Bendersky-Petrank [4]       HS >= %.3f x M@."
      (Pc.Bounds.Bendersky_petrank.waste_factor ~m ~n ~c);
    Fmt.pr "@.upper bounds (achievable by some manager):@.";
    Fmt.pr "  Bendersky-Petrank (c+1)M    HS <= %.3f x M@."
      (Pc.Bounds.Bendersky_petrank.upper_bound ~m ~c /. mf);
    Fmt.pr "  Robson x2 (no compaction)   HS <= %.3f x M@."
      (Pc.Bounds.Robson.upper_bound_general ~m ~n /. mf);
    if Pc.Bounds.Theorem2.applicable ~n ~c then
      Fmt.pr "  Theorem 2 (this paper)      HS <= %.3f x M@."
        (Pc.Bounds.Theorem2.waste_factor ~m ~n ~c)
  in
  Cmd.v
    (Cmd.info "bounds" ~exits ~doc:"Print the closed-form bounds for M, n, c.")
    Term.(const run $ m_arg $ n_arg $ c_arg)

(* ------------------------------------------------------------------ *)
(* pc figure                                                          *)

let figure_cmd =
  let run which =
    match which with
    | 1 ->
        Fmt.pr "c,cohen_petrank,bendersky_petrank,trivial@.";
        List.iter
          (fun c ->
            let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig1 ~c in
            Fmt.pr "%g,%.4f,%.4f,1.0@." c
              (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c)
              (Pc.Bounds.Bendersky_petrank.waste_factor ~m ~n ~c))
          Pc.Bounds.Params.fig1_cs
    | 2 ->
        Fmt.pr "n,cohen_petrank@.";
        List.iter
          (fun n ->
            let { Pc.Bounds.Params.m; n; c } = Pc.Bounds.Params.fig2 ~n in
            Fmt.pr "%d,%.4f@." n (Pc.Bounds.Cohen_petrank.waste_factor ~m ~n ~c))
          Pc.Bounds.Params.fig2_ns
    | 3 ->
        Fmt.pr "c,theorem2,prior_best@.";
        List.iter
          (fun c ->
            let { Pc.Bounds.Params.m; n; _ } = Pc.Bounds.Params.fig3 ~c in
            if Pc.Bounds.Theorem2.applicable ~n ~c then
              Fmt.pr "%g,%.4f,%.4f@." c
                (Pc.Bounds.Theorem2.waste_factor ~m ~n ~c)
                (Pc.Bounds.Theorem2.prior_best ~m ~n ~c /. float_of_int m))
          Pc.Bounds.Params.fig3_cs
    | k -> Fmt.epr "unknown figure %d (expected 1, 2 or 3)@." k
  in
  let which =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"FIGURE")
  in
  Cmd.v
    (Cmd.info "figure" ~exits
       ~doc:"Print a paper figure's series as CSV (figures 1, 2, 3).")
    Term.(const run $ which)

(* ------------------------------------------------------------------ *)
(* pc simulate                                                        *)

let simulate_cmd =
  let run program manager m n c seed backend audit audit_every broken_budget
      failures_dir telemetry telemetry_out json =
    Pc.Backend.set_default backend;
    let mgr = Pc.Managers.construct_exn manager in
    let emit o =
      if json then
        Fmt.pr "%s@." (Pc_json.Json.to_string (Pc.Exec.Cache.outcome_to_json o))
      else Fmt.pr "%a@." Pc.Runner.pp_outcome o
    in
    (* --broken-budget models a manager whose compaction-budget debit
       is broken: the enforced budget is lifted while the oracle keeps
       auditing the declared c — the audit drill in CI. *)
    let budgeted ?theory_h prog =
      if broken_budget then
        Pc.Runner.run ~audit_c:c ~audit ~audit_every ?theory_h ?failures_dir
          ~program:prog ~manager:mgr ()
      else
        Pc.Runner.run ~c ~audit ~audit_every ?theory_h ?failures_dir
          ~program:prog ~manager:mgr ()
    in
    let unbudgeted prog =
      Pc.Runner.run ~audit ~audit_every ?failures_dir ~program:prog
        ~manager:mgr ()
    in
    with_telemetry telemetry telemetry_out @@ fun () ->
    match program with
    | "pf" ->
        let pf_audit = audit = Pc.Audit.Oracle.Full in
        let cfg, prog = Pc.Pf.program ~audit:pf_audit ~m ~n ~c () in
        let o = budgeted ~theory_h:cfg.h prog in
        emit o;
        if not json then
          Fmt.pr "theory: h=%.3f (l=%d) => HS/M should reach %.3f at scale@."
            cfg.h cfg.ell (Float.max cfg.h 1.0)
    | "robson" ->
        let prog = Pc.Robson_pr.program ~m ~n () in
        let o = unbudgeted prog in
        emit o;
        if not json then
          Fmt.pr "theory (non-moving managers): HS/M >= %.3f@."
            (Pc.Bounds.Robson.waste_factor_pow2 ~m ~n)
    | "random" ->
        let prog =
          Pc.Random_workload.program ~seed ~m
            ~dist:(Pc.Random_workload.Pow2 { lo_log = 0; hi_log = Pc.Word.log2_floor n })
            ~target_live:(m / 2) ()
        in
        emit (budgeted prog)
    | "pw" ->
        let prog = Pc.Pw.program ~m ~n () in
        emit (budgeted prog)
    | "sawtooth" ->
        let prog = Pc.Sawtooth.program ~m ~n () in
        emit (budgeted prog)
    | p when String.length p > 7 && String.sub p 0 7 = "script:" ->
        (* e.g. --program "script:a x 16; a y 8; f x; a z 4" *)
        let text = String.sub p 7 (String.length p - 7) in
        let prog = Pc.Script.program (Pc.Script.parse text) in
        emit (unbudgeted prog)
    | p ->
        Fmt.invalid_arg
          "unknown program %s (expected pf, robson, pw, sawtooth, random, \
           script:...)"
          p
  in
  let program_arg =
    Arg.(
      value & opt string "pf"
      & info [ "program" ] ~docv:"NAME"
          ~doc:
            "Workload: pf, robson, pw, sawtooth, random, or \
             'script:a x 16; f x; ...'.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let m_small =
    Arg.(
      value & opt size_conv (1 lsl 14)
      & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M.")
  in
  let n_small =
    Arg.(
      value & opt size_conv (1 lsl 6)
      & info [ "n" ] ~docv:"WORDS" ~doc:"Largest object size n (power of two).")
  in
  let c_small =
    Arg.(value & opt float 8.0 & info [ "c" ] ~docv:"C" ~doc:"Compaction bound.")
  in
  let broken_budget_arg =
    Arg.(
      value & flag
      & info [ "broken-budget" ]
          ~doc:
            "Audit drill: run with the enforced compaction budget lifted \
             while the oracle still audits the declared $(b,c) — models a \
             manager whose budget debit is broken. With --audit on, the \
             first over-budget move trips the budget oracle, emits a \
             minimized repro bundle and exits with code 3.")
  in
  Cmd.v
    (Cmd.info "simulate" ~exits
       ~doc:"Run an adversary or random workload against a manager.")
    Term.(
      const run $ program_arg $ manager_arg $ m_small $ n_small $ c_small
      $ seed_arg $ backend_arg $ audit_arg $ audit_every_arg
      $ broken_budget_arg $ failures_dir_arg $ telemetry_arg
      $ telemetry_out_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* pc diagram                                                         *)

let diagram_cmd =
  let run m n manager =
    let mgr = Pc.Managers.construct_exn manager in
    let program = Pc.Robson_pr.program ~m ~n () in
    let ctx = Pc.Ctx.create ~live_bound:m () in
    let driver = Pc.Driver.create ctx mgr in
    Pc.Program.run program driver;
    let heap = Pc.Ctx.heap ctx in
    Fmt.pr "Robson's P_R vs %s (M=%d, n=%d): HS/M=%.3f@." manager m n
      (float_of_int (Pc.Heap.high_water heap) /. float_of_int m);
    Fmt.pr "%s@."
      (Pc.Layout.render
         ~config:
           {
             Pc.Layout.words_per_cell = max 1 (Pc.Heap.high_water heap / 4096);
             cells_per_row = 64;
             chunk_words = Some n;
           }
         heap)
  in
  let m_small =
    Arg.(
      value & opt size_conv 256
      & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M.")
  in
  let n_small =
    Arg.(
      value & opt size_conv 16
      & info [ "n" ] ~docv:"WORDS" ~doc:"Largest object size n (power of two).")
  in
  Cmd.v
    (Cmd.info "diagram" ~exits
       ~doc:"Render the heap Robson's adversary leaves behind, as ASCII.")
    Term.(const run $ m_small $ n_small $ manager_arg)

(* ------------------------------------------------------------------ *)
(* pc trace                                                           *)

let trace_cmd =
  let run program manager m n c stats_only =
    let mgr = Pc.Managers.construct_exn manager in
    let prog =
      match program with
      | "pf" -> snd (Pc.Pf.program ~m ~n ~c ())
      | "robson" -> Pc.Robson_pr.program ~m ~n ()
      | "pw" -> Pc.Pw.program ~m ~n ()
      | "random" ->
          Pc.Random_workload.program ~m
            ~dist:
              (Pc.Random_workload.Pow2
                 { lo_log = 0; hi_log = Pc.Word.log2_floor n })
            ~target_live:(m / 2) ()
      | p -> Fmt.invalid_arg "unknown program %s" p
    in
    let ctx = Pc.Ctx.create ~budget:(Pc.Budget.create ~c) ~live_bound:m () in
    let trace = Pc.Trace.create () in
    Pc.Trace.record trace (Pc.Ctx.heap ctx);
    let driver = Pc.Driver.create ctx mgr in
    Pc.Program.run prog driver;
    if stats_only then Fmt.pr "%a@." Pc.Trace.pp_stats (Pc.Trace.stats trace)
    else print_string (Pc.Trace.to_string trace)
  in
  let program_arg =
    Arg.(
      value & opt string "robson"
      & info [ "program" ] ~docv:"NAME"
          ~doc:"Workload: pf, robson, pw or random.")
  in
  let m_small =
    Arg.(
      value & opt size_conv (1 lsl 10)
      & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M.")
  in
  let n_small =
    Arg.(
      value & opt size_conv (1 lsl 5)
      & info [ "n" ] ~docv:"WORDS" ~doc:"Largest object size n (power of two).")
  in
  let c_small =
    Arg.(value & opt float 8.0 & info [ "c" ] ~docv:"C" ~doc:"Compaction bound.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print aggregate statistics instead of events.")
  in
  Cmd.v
    (Cmd.info "trace" ~exits
       ~doc:
         "Dump a replayable heap event trace (or its statistics) of a \
          workload against a manager.")
    Term.(
      const run $ program_arg $ manager_arg $ m_small $ n_small $ c_small
      $ stats_arg)

(* ------------------------------------------------------------------ *)
(* pc sweep                                                           *)

let sweep_cmd =
  let run manager m n cs jobs no_cache cache_dir resume retries timeout
      inject_faults audit failures_dir telemetry telemetry_out json =
    (* Each (c, manager) point is a deterministic job spec: points run
       on the engine's Domain pool, completed points are served from
       the on-disk result cache on re-runs, and every outcome is
       journaled as it lands so a killed sweep resumes with --resume. *)
    let module Spec = Pc.Exec.Spec in
    let module Engine = Pc.Exec.Engine in
    let module Checkpoint = Pc.Exec.Checkpoint in
    let faults =
      match inject_faults with
      | None -> None
      | Some spec -> (
          match Pc.Exec.Faults.of_string spec with
          | Ok f -> Some f
          | Error msg ->
              Fmt.epr "bad --inject-faults spec: %s@." msg;
              exit 2)
    in
    let cache =
      if no_cache then None else Some (Pc.Exec.Cache.create ?dir:cache_dir ())
    in
    let specs = List.map (fun c -> Spec.pf ~c ~manager ~m ~n ()) cs in
    (* --no-cache means "leave no trace and read no prior state": it
       skips the checkpoint journal along with the result cache, so a
       golden-test or one-shot run touches no shared on-disk state. *)
    let lock, checkpoint =
      if no_cache then (None, None)
      else begin
        let journal_dir =
          Checkpoint.default_dir
            ~cache_dir:
              (match cache_dir with
              | Some d -> d
              | None -> Pc.Exec.Cache.default_dir ())
        in
        (* One writer per journal: a second `pc sweep` of the same
           sweep on this state fails fast instead of interleaving
           journal appends. *)
        let lock =
          Pc.Exec.Lockfile.acquire
            (Checkpoint.path ~dir:journal_dir specs ^ ".lock")
        in
        let cp = Checkpoint.open_ ~resume ~dir:journal_dir specs in
        (* On stderr, so --json keeps stdout a single JSON document. *)
        if resume && Checkpoint.loaded cp > 0 then
          Fmt.epr "resuming: %d of %d outcome(s) journaled in %s@."
            (Checkpoint.loaded cp) (List.length specs) (Checkpoint.path_of cp);
        (Some lock, Some cp)
      end
    in
    let results, summary =
      Fun.protect
        ~finally:(fun () ->
          Option.iter Checkpoint.close checkpoint;
          Option.iter Pc.Exec.Lockfile.release lock)
        (fun () ->
          with_telemetry telemetry telemetry_out @@ fun () ->
          Engine.run ~jobs ?cache ?checkpoint ~retries ?timeout ?faults ~audit
            ?failures_dir specs)
    in
    let source (r : Engine.job_result) =
      if r.from_cache then "cache"
      else if r.from_journal then "journal"
      else "run"
    in
    if json then begin
      let module Json = Pc_json.Json in
      let points =
        List.map2
          (fun c (r : Engine.job_result) ->
            let cfg = Pc.Pf.config ~m ~n ~c () in
            let base =
              [
                ("c", Json.Float c);
                ("ell", Json.Int cfg.ell);
                ("theory_h", Json.Float (Float.max cfg.h 1.0));
              ]
            in
            match r.result with
            | Error msg -> Json.Obj (base @ [ ("error", Json.String msg) ])
            | Ok o ->
                Json.Obj
                  (base
                  @ [
                      ("outcome", Pc.Exec.Cache.outcome_to_json o);
                      ("source", Json.String (source r));
                    ]))
          cs results
      in
      (* No wall-clock field: the JSON form is diffable across runs. *)
      let summary_json =
        Json.Obj
          [
            ("total", Json.Int summary.total);
            ("executed", Json.Int summary.executed);
            ("cached", Json.Int summary.cached);
            ("resumed", Json.Int summary.resumed);
            ("recovered", Json.Int summary.recovered);
            ("retried", Json.Int summary.retried);
            ("failed", Json.Int summary.failed);
            ("violations", Json.Int summary.violations);
          ]
      in
      Fmt.pr "%s@."
        (Json.to_string
           (Json.Obj [ ("points", Json.List points); ("summary", summary_json) ]))
    end
    else begin
      Fmt.pr "%6s %4s %10s %10s %8s %10s %7s@." "c" "l" "theory h" "HS/M"
        "moved" "compliant" "source";
      List.iter2
        (fun c (r : Engine.job_result) ->
          match r.result with
          | Error msg -> Fmt.epr "c=%g: %s@." c msg
          | Ok o ->
              let cfg = Pc.Pf.config ~m ~n ~c () in
              Fmt.pr "%6g %4d %10.3f %10.3f %8d %10b %7s@." c cfg.ell
                (Float.max cfg.h 1.0) o.hs_over_m o.moved o.compliant (source r))
        cs results;
      Fmt.pr "%a@." Engine.pp_summary summary
    end;
    if summary.violations > 0 then exit Pc.Audit.Report.exit_violation;
    if faults <> None && summary.failed > 0 then exit 1
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Execute sweep points on $(docv) parallel worker domains.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Always execute; neither read nor write the result cache, and \
             skip the checkpoint journal — the sweep touches no on-disk \
             state.")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Result cache directory (default: $(b,PC_CACHE_DIR) or \
             $(b,_pc_cache)).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay outcomes journaled by a previous (possibly killed) run \
             of the same sweep from $(b,<cache-dir>/sweeps/), re-executing \
             only the missing points. Without this flag the journal is \
             truncated and the sweep starts clean.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a job up to $(docv) times after a transient failure \
             (worker crash, timeout), with exponential backoff and seeded \
             jitter. Deterministic failures are never retried past one \
             reproduction probe.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt wall-clock budget; an attempt exceeding it counts \
             as a transient failure and is retried.")
  in
  let inject_faults_arg =
    Arg.(
      value & opt (some string) None
      & info [ "inject-faults" ] ~docv:"SPEC"
          ~doc:
            "Chaos mode: inject seeded faults at job and cache boundaries, \
             e.g. $(b,crash=0.3,delay=0.15,trunc=0.2,corrupt=0.2,seed=7). \
             Exits nonzero if any point is left unrecovered.")
  in
  let m_small =
    Arg.(
      value & opt size_conv (1 lsl 14)
      & info [ "m" ] ~docv:"WORDS" ~doc:"Live-space bound M.")
  in
  let n_small =
    Arg.(
      value & opt size_conv (1 lsl 7)
      & info [ "n" ] ~docv:"WORDS" ~doc:"Largest object size n (power of two).")
  in
  let cs_arg =
    Arg.(
      value
      & opt (list float) [ 8.0; 16.0; 32.0; 64.0 ]
      & info [ "cs" ] ~docv:"C,C,..." ~doc:"Compaction bounds to sweep.")
  in
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:
         "Sweep PF over compaction bounds against one manager (Table S1), \
          in parallel, with result caching, checkpoint/resume and optional \
          fault injection.")
    Term.(
      const run $ manager_arg $ m_small $ n_small $ cs_arg $ jobs_arg
      $ no_cache_arg $ cache_dir_arg $ resume_arg $ retries_arg $ timeout_arg
      $ inject_faults_arg $ audit_arg $ failures_dir_arg $ telemetry_arg
      $ telemetry_out_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* pc replay                                                          *)

let replay_cmd =
  let run bundle backend =
    match Pc.Audit.Report.replay ?backend bundle with
    | Error msg ->
        Fmt.epr "cannot replay %s: %s@." bundle msg;
        exit Pc.Audit.Report.exit_usage
    | Ok (Some v) ->
        Fmt.pr "%a@." Pc.Audit.Oracle.pp_violation v;
        Fmt.pr "violation reproduced from %s@." bundle;
        exit Pc.Audit.Report.exit_violation
    | Ok None -> Fmt.pr "violation did not reproduce from %s@." bundle
  in
  let bundle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:
            "A repro-bundle directory emitted on an oracle violation \
             (e.g. $(b,_pc_failures/budget-0123456789ab)).")
  in
  let backend_opt =
    let backend_conv = Arg.conv (Pc.Backend.of_string, Pc.Backend.pp) in
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Override the heap substrate recorded in the bundle — replay a \
             failure captured on $(b,imperative) against $(b,reference) to \
             tell substrate bugs from genuine manager misbehaviour.")
  in
  Cmd.v
    (Cmd.info "replay" ~exits
       ~doc:
         "Replay a repro bundle's minimized trace against its recorded \
          oracle; exits with code 3 if the violation reproduces, 0 if it no \
          longer trips.")
    Term.(const run $ bundle_arg $ backend_opt)

(* ------------------------------------------------------------------ *)
(* pc report                                                          *)

let report_cmd =
  let run file top csv =
    let text =
      match In_channel.with_open_bin file In_channel.input_all with
      | text -> text
      | exception Sys_error msg ->
          Fmt.epr "pc report: %s@." msg;
          exit Pc.Audit.Report.exit_usage
    in
    let parsed =
      match Pc_json.Json.of_string text with
      | j -> Pc.Telemetry.Snapshot.of_json j
      | exception Pc_json.Json.Parse_error msg -> Error ("bad JSON: " ^ msg)
    in
    match parsed with
    | Error msg ->
        Fmt.epr "pc report: %s: %s@." file msg;
        exit Pc.Audit.Report.exit_usage
    | Ok snap ->
        if csv then print_string (Pc.Telemetry.Snapshot.to_csv snap)
        else Fmt.pr "%a@." (fun ppf -> Pc.Telemetry.Report.pp ~top ppf) snap
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SNAPSHOT"
          ~doc:
            "A telemetry snapshot (schema $(b,pc-telemetry/1)) written by \
             $(b,--telemetry-out) or the bench harness.")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Show the $(docv) hottest per-job spans (default 5).")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit the snapshot as one wide CSV table (one row per \
             instrument) instead of the rendered report.")
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:
         "Render a telemetry snapshot: per-phase span breakdown, the \
          hottest sweep jobs, counters, gauges and histograms.")
    Term.(const run $ file_arg $ top_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* pc managers                                                        *)

let managers_cmd =
  let run () =
    List.iter
      (fun (e : Pc.Managers.entry) ->
        Fmt.pr "%-16s %-7s %s@." e.key
          (if e.moving then "moving" else "static")
          e.summary)
      (Pc.Managers.entries ())
  in
  Cmd.v
    (Cmd.info "managers" ~exits ~doc:"List the available memory managers.")
    Term.(const run $ const ())

let () =
  (* -v / -vv on any subcommand raises the log level (info / debug). *)
  let verbosity =
    Array.fold_left
      (fun acc a -> if a = "-v" then acc + 1 else acc)
      0 Sys.argv
  in
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (match verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug);
  let argv = Array.of_list (List.filter (fun a -> a <> "-v") (Array.to_list Sys.argv)) in
  let doc = "bounds and simulators for partial heap compaction (PLDI'13)" in
  let group =
    Cmd.group
      (Cmd.info "pc" ~version:"1.0.0" ~doc ~exits)
      [
        bounds_cmd;
        figure_cmd;
        simulate_cmd;
        sweep_cmd;
        trace_cmd;
        diagram_cmd;
        replay_cmd;
        report_cmd;
        managers_cmd;
      ]
  in
  (* Exceptions escape Cmdliner (~catch:false) so they can be mapped
     onto the exit-code taxonomy; Cmdliner's own cli_error (124) is
     remapped onto the shared usage code. *)
  let code =
    try
      match Cmd.eval ~argv ~catch:false group with
      | c when c = Cmd.Exit.cli_error -> Pc.Audit.Report.exit_usage
      | c -> c
    with
    | Pc.Audit.Report.Reported b ->
        Fmt.epr "%a@." Pc.Audit.Report.pp_bundle b;
        Pc.Audit.Report.exit_violation
    | Pc.Audit.Oracle.Violation v ->
        Fmt.epr "%a@." Pc.Audit.Oracle.pp_violation v;
        Pc.Audit.Report.exit_violation
    | Pc.Budget.Exceeded { requested; available } ->
        Fmt.epr "compaction budget exceeded: move of %d requested, %d left@."
          requested available;
        Pc.Audit.Report.exit_violation
    | Pc.Pf.Audit_failure { step; delta_u; floor } ->
        Fmt.epr "PF potential audit failed at step %d: delta_u=%d < floor %d@."
          step delta_u floor;
        Pc.Audit.Report.exit_violation
    | Pc.Exec.Lockfile.Locked _ as e ->
        Fmt.epr "pc: %s@." (Printexc.to_string e);
        Pc.Audit.Report.exit_usage
    | Invalid_argument msg | Pc.Script.Bad_script msg ->
        Fmt.epr "pc: %s@." msg;
        Pc.Audit.Report.exit_usage
    | e ->
        Fmt.epr "pc: internal error: %s@." (Printexc.to_string e);
        Pc.Audit.Report.exit_internal
  in
  exit code
