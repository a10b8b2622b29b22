(* The repository benchmark: host time of the simulator on the
   workloads of Workloads, with every simulated statistic checked for
   exact repetition. Run it through perfbench/run.py, which builds
   this program first.

   --trace 0 reports the end-to-end metrics; --trace 1 splits each
   workload into layers by timing calls into the public interfaces
   from here (Probe), with no instrumentation in the program. *)

open Pc_exec
module Json = Pc_json.Json
module Runner = Pc_adversary.Runner
module W = Perfbench.Workloads
module Probe = Perfbench.Probe

(* Set-up runs [setups] times; setup_s is their median. The measured
   loop runs for the given seconds and at least [min_reps] passes. *)
let setups = 3
let min_reps = 3

(* Warm sweeps of the exec grid per traced iteration, for exec.hit_us,
   and fsynced journal records, for exec.journal_record_us. *)
let warm_sweeps = 10
let journal_calls = 64

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* Least-squares slope of log y against log x. *)
let slope points =
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let mx = sum (List.map fst pts) /. n and my = sum (List.map snd pts) /. n in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) pts) in
  let sxx = sum (List.map (fun (x, _) -> (x -. mx) *. (x -. mx)) pts) in
  sxy /. sxx

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let k = ref 0 in
  fun root ->
    incr k;
    let d = Filename.concat root (Printf.sprintf "d%d" !k) in
    rm_rf d;
    Sys.mkdir d 0o755;
    d

let read_file path =
  match open_in path with
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      s
  | exception Sys_error _ -> ""

let proc_field file key =
  String.split_on_char '\n' (read_file file)
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.trim (String.sub line 0 i) = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.
      | [] -> nan)
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Host calibration                                                   *)

(* A shared host's other tenants slow cache-heavy code by up to a third
   for tens of seconds at a time, while register-only loops keep their
   speed. The calibration kernel is cache-heavy in the simulator's way:
   it churns a Hashtbl, allocating on the minor heap. It does not call
   the simulator, so a change to the program cannot move it; a change
   to the OCaml runtime's settings would. [calibration_ref_s] fixes the
   unit of scaled times: they read as if every call of the kernel had
   taken that long, close to its median on a shared 2-vCPU Xeon VM. *)
let calibration_kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (i * 7919 land 0xffff) i;
    if i land 1 = 0 then Hashtbl.remove h (i / 2 * 7919 land 0xffff)
  done;
  ignore (Sys.opaque_identity h)

let calibration_ref_s = 0.008

(* Kernel calls per second of simulation, spread over the points of a
   pass by their warm-up times, so that long points are sampled as
   densely as short ones. *)
let calibration_every_s = 0.1

(* ------------------------------------------------------------------ *)
(* Correctness                                                        *)

let attempted = ref 0
let failed = ref 0

(* One checked operation: it counts toward [attempted], and toward
   [failed] unless [ok]. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        prerr_endline ("perfbench: FAIL " ^ msg)
      end)
    fmt

(* The simulated statistics of one point; host time plays no part. *)
let outcome_key (o : Runner.outcome) =
  Printf.sprintf "%s|%s|m=%d|n=%d|c=%s|hs=%d|alloc=%d|moved=%d|freed=%d|live=%d|%b"
    o.program o.manager o.m o.n
    (match o.c with Some c -> Printf.sprintf "%h" c | None -> "-")
    o.hs o.allocated o.moved o.freed o.final_live o.compliant

let outcome_digest outcomes =
  List.map (function Some o -> outcome_key o | None -> "raised") outcomes
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let theorem1_h (spec : Spec.t) =
  match (spec.workload, spec.c) with
  | Spec.Pf _, Some c -> Some (Pc_adversary.Pf.config ~m:spec.m ~n:spec.n ~c ()).h
  | _ -> None

(* Checks one outcome (None = the point raised) against the paper's
   claims and, when given, the reference outcome of the same point. *)
let check_point ~what (spec : Spec.t) reference outcome =
  let problem =
    match outcome with
    | None -> Some "raised"
    | Some (o : Runner.outcome) when not o.compliant -> Some "broke the c-partial budget"
    | Some o -> (
        match (theorem1_h spec, reference) with
        | Some h, _ when o.hs_over_m < h ->
            Some (Printf.sprintf "has HS/M %.4f below Theorem 1 h %.4f" o.hs_over_m h)
        | _, Some r when outcome_key r <> outcome_key o ->
            Some
              (Printf.sprintf "differs from the reference: %s vs %s" (outcome_key o)
                 (outcome_key r))
        | _ -> None)
  in
  check (problem = None) "%s: %s %s" what (Spec.key spec)
    (Option.value problem ~default:"")

let check_pass ~what specs reference outcomes =
  List.iteri
    (fun i (spec, o) ->
      check_point ~what spec (Option.bind reference (fun r -> r.(i))) o)
    (List.combine specs outcomes)

(* ------------------------------------------------------------------ *)
(* Passes                                                             *)

type point = { spec : Spec.t; program : Pc_adversary.Program.t }
type group = { size : int; points : point array }

let build w ~seed =
  List.map
    (fun (g : W.group) ->
      {
        size = g.size;
        points =
          Array.of_list
            (List.map (fun spec -> { spec; program = Spec.build spec }) g.specs);
      })
    (W.groups w ~seed)

let specs_of groups =
  List.concat_map (fun g -> Array.to_list (Array.map (fun p -> p.spec) g.points)) groups

let run_point ?audit ?(wrap = Fun.id) p =
  match
    Runner.run ?c:p.spec.c ?audit ?theory_h:(theorem1_h p.spec)
      ~failures_dir:"_pc_failures" ~program:p.program
      ~manager:(wrap (Spec.manager p.spec))
      ()
  with
  | o -> Some o
  | exception e ->
      prerr_endline ("perfbench: " ^ Spec.key p.spec ^ ": " ^ Printexc.to_string e);
      None

type pass = {
  outcomes : Runner.outcome option list;
  point_s : float array;  (** wall seconds per point, in pass order *)
  minor_words : float;
  calibration_s : float;  (** median time of the pass's kernel calls *)
}

(* One pass called directly on this domain. Every point starts from a
   collected major heap, so that no point pays for another's garbage.
   Before point [k], untimed by the pass, the calibration kernel runs
   [calls.(k)] times (none if [calls] is not given). *)
let direct_pass ?wrap ?calls groups =
  let points = List.concat_map (fun g -> Array.to_list g.points) groups in
  let kernel_s = ref [] in
  let runs =
    List.mapi
      (fun k p ->
        Option.iter
          (fun calls ->
            for _ = 1 to calls.(k) do
              kernel_s := snd (time calibration_kernel) :: !kernel_s
            done)
          calls;
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let o, dt = time (fun () -> run_point ?wrap p) in
        (o, dt, Gc.minor_words () -. w0))
      points
  in
  {
    outcomes = List.map (fun (o, _, _) -> o) runs;
    point_s = Array.of_list (List.map (fun (_, dt, _) -> dt) runs);
    minor_words = sum (List.map (fun (_, _, w) -> w) runs);
    calibration_s = median !kernel_s;
  }

let engine_outcomes results =
  List.map
    (fun (r : Engine.job_result) ->
      match r.result with
      | Ok o -> Some o
      | Error e ->
          prerr_endline ("perfbench: " ^ Spec.key r.spec ^ ": " ^ e);
          None)
    results

type sweep = {
  results : Engine.job_result list;
  summary : Engine.summary;
  cache : Cache.t;
  dir : string;
  sweep_s : float;
}

(* One cold sweep through the engine on [jobs] domains, with a fresh
   cache and journal created before the timer starts. *)
let cold_sweep ~jobs ~root specs =
  let dir = fresh_dir root in
  let cache = Cache.create ~dir () in
  let journal = Checkpoint.open_ ~dir:(Checkpoint.default_dir ~cache_dir:dir) specs in
  let (results, summary), sweep_s =
    time (fun () -> Engine.run ~jobs ~cache ~checkpoint:journal specs)
  in
  Checkpoint.close journal;
  { results; summary; cache; dir; sweep_s }

(* The same sweep again, every point served from [cache]. Returns the
   outcomes, the number of cache hits and the seconds taken. *)
let warm_sweep cache specs =
  let (results, _), dt = time (fun () -> Engine.run ~jobs:W.exec_jobs ~cache specs) in
  List.iter
    (fun (r : Engine.job_result) ->
      check r.from_cache "warm sweep: %s was not a cache hit" (Spec.key r.spec))
    results;
  let hits = List.length (List.filter (fun (r : Engine.job_result) -> r.from_cache) results) in
  (engine_outcomes results, hits, dt)

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)

type setup = {
  groups : group list;
  reference : Runner.outcome option array;  (** [None]: the point raised *)
  events : int;  (** heap events in one pass *)
  warm_s : float array;  (** the warm-up pass's seconds per point *)
}

(* Builds the programs and spec grid and runs the warm-up pass, which
   counts the pass's heap events and yields the reference outcomes.
   The measured passes call the simulator directly and use no cache,
   so set-up creates none. *)
let setup w ~seed =
  let groups = build w ~seed in
  let counter = ref 0 in
  let warm = direct_pass ~wrap:(Probe.count_events counter) groups in
  check_pass ~what:"warm-up" (specs_of groups) None warm.outcomes;
  { groups; reference = Array.of_list warm.outcomes; events = !counter; warm_s = warm.point_s }

let check_digest ~what ~pinned outcomes =
  let digest = outcome_digest outcomes in
  Printf.printf "%s outcome digest: %s\n" what digest;
  check (digest = pinned) "%s: outcome digest %s differs from the pinned %s" what digest
    pinned

let check_pinned w ~seed s =
  if seed = W.default_seed || w = W.Pf_scale then
    check_digest ~what:(W.name w) ~pinned:(W.pinned w) (Array.to_list s.reference)

(* ------------------------------------------------------------------ *)
(* Provenance                                                         *)

(* Twice the work on two domains against one share on one domain: how
   far two domains run from ideal on this machine. *)
let spin_ratio () =
  let spin () =
    let x = ref 1 in
    for i = 1 to 100_000_000 do
      x := (!x * 1103515245) + 12345 + i
    done;
    !x
  in
  let _, one = time (fun () -> ignore (Sys.opaque_identity (spin ()))) in
  let _, two =
    time (fun () ->
        let d = Domain.spawn spin in
        ignore (Sys.opaque_identity (spin ()));
        ignore (Sys.opaque_identity (Domain.join d)))
  in
  two /. one

let provenance ~workload ~seed ~trace =
  let env k = Json.String (Option.value (Sys.getenv_opt k) ~default:"unknown") in
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("trace", Json.Bool trace);
         ("commit", env "PERFBENCH_COMMIT");
         ("source_digest", env "PERFBENCH_SOURCE_DIGEST");
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ( "cpu",
           Json.String
             (Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")) );
         ("ocaml", Json.String Sys.ocaml_version);
         ("flambda", env "PERFBENCH_FLAMBDA");
         ("backend", Json.String (Pc_heap.Backend.to_string (Pc_heap.Backend.default ())));
         ("spin_2domain_ratio", Json.Float (spin_ratio ()));
       ])

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_table metrics =
  List.iter (fun x -> Printf.printf "  %-40s %16.6g %s\n" x.name x.value x.unit_) metrics

let result_line metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (!failed = 0));
         ("attempted", Json.Int (max 1 !attempted));
         ("failed", Json.Int !failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                metrics) );
       ])

(* ------------------------------------------------------------------ *)
(* End-to-end run (tracing off)                                       *)

let end_to_end w ~seed ~seconds =
  let setups =
    List.init setups (fun _ ->
        Gc.full_major ();
        time (fun () -> setup w ~seed))
  in
  let s = fst (List.hd setups) in
  check_pinned w ~seed s;
  List.iter
    (fun (s', _) ->
      check
        (outcome_digest (Array.to_list s'.reference)
        = outcome_digest (Array.to_list s.reference))
        "set-up passes disagree")
    setups;
  let specs = specs_of s.groups in
  let points = List.length specs in
  let reference = Some s.reference in
  let deadline = now () +. seconds in
  (* Read after the first measured pass, so that it covers the same
     work on every run however many passes the time allows. *)
  let peak_rss = ref nan in
  let calls =
    Array.map (fun t -> 1 + int_of_float (t /. calibration_every_s)) s.warm_s
  in
  let rec loop acc =
    if acc <> [] && Float.is_nan !peak_rss then peak_rss := peak_rss_mb ();
    if List.length acc >= min_reps && now () >= deadline then List.rev acc
    else begin
      let pass = direct_pass ~calls s.groups in
      check_pass ~what:"pass" specs reference pass.outcomes;
      loop (pass :: acc)
    end
  in
  let passes = loop [] in
  (* Host seconds are scaled by how much faster or slower than
     [calibration_ref_s] the calibration kernel ran: each pass by the
     calls made during it, set-up by all of them. The simulated work is
     the same on every pass, so the unscaled times, printed below,
     differ only by what the other tenants took. *)
  let scaled p t = t *. calibration_ref_s /. p.calibration_s in
  let pass_walls = List.map (fun p -> Array.fold_left ( +. ) 0. p.point_s) passes in
  let wall = median (List.map2 scaled passes pass_walls) in
  let calibration_s = median (List.map (fun p -> p.calibration_s) passes) in
  let scale = calibration_ref_s /. calibration_s in
  let events = float_of_int s.events in
  let mwords = List.map (fun p -> p.minor_words) passes in
  if List.exists (fun x -> x <> List.hd mwords) mwords then
    Printf.printf "note: minor words vary across passes: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.0f") mwords));
  let _, group_times =
    List.fold_left_map
      (fun first g ->
        let n = Array.length g.points in
        let group_s p = sum (Array.to_list (Array.sub p.point_s first n)) in
        let t = median (List.map (fun p -> scaled p (group_s p)) passes) in
        (first + n, (float_of_int g.size, t)))
      0 s.groups
  in
  let setup_s = median (List.map snd setups) in
  Printf.printf "%d passes of %d points, %d heap events each\n" (List.length passes)
    points s.events;
  Printf.printf "unscaled pass walls: %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") pass_walls));
  Printf.printf "unscaled median pass %.4f s, set-up %.4f s\n" (median pass_walls) setup_s;
  Printf.printf "calibration kernel: median %.3f ms, %d calls a pass, scale %.4f\n"
    (calibration_s *. 1e3) (Array.fold_left ( + ) 0 calls) scale;
  List.iter
    (fun (size, t) -> Printf.printf "  size %-8.0f median %.4f s\n" size t)
    group_times;
  [
    m "setup_s" "s" (setup_s *. scale);
    m "wall_s" "s" wall;
    m "events_per_s" "1/s" (events /. wall);
    m "minor_words_per_event" "words/event" (median mwords /. events);
    m "scaling_exponent" "slope" (slope group_times);
    m "peak_rss_mb" "MB" !peak_rss;
  ]


(* ------------------------------------------------------------------ *)
(* Traced run                                                         *)

(* Sums over the points of one traced iteration, keyed by name. *)
let tally () = Hashtbl.create 64
let add t k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))
let get t k = Option.value ~default:0. (Hashtbl.find_opt t k)

let timed_run ?audit ?wrap p =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let o, dt = time (fun () -> run_point ?audit ?wrap p) in
  (o, dt, Gc.minor_words () -. w0)

let with_telemetry level f =
  Pc_telemetry.Sink.set level;
  Fun.protect ~finally:(fun () -> Pc_telemetry.Sink.set Pc_telemetry.Sink.Off) f

(* Every layer of one point, measured one after another. *)
let trace_point t keys r p =
  let check_run what o = check_point ~what p.spec (Some r) o in
  let o, w0, w0_words = timed_run p in
  check_run "untraced" o;
  add t "w0" w0;
  add t "w0_words" w0_words;
  let wrap, finish = Probe.recording () in
  check_run "recording" (run_point ~wrap p);
  let s = finish () in
  add t "events" (float_of_int s.len);
  add t "allocs" (float_of_int s.allocs);
  add t "frees" (float_of_int s.frees);
  add t "moves" (float_of_int s.moves);
  add t "moved_words" (float_of_int s.moved_words);
  (* The timed manager. *)
  let clock = Probe.clock () in
  let o, wt, _ = timed_run ~wrap:(Probe.timed clock) p in
  check_run "timed manager" o;
  let alloc_s = Probe.secs clock.alloc_ns and free_s = Probe.secs clock.free_ns in
  add t "wt" wt;
  add t "alloc_calls" (float_of_int clock.alloc_calls);
  add t "alloc_s" alloc_s;
  add t "free_s" free_s;
  let key = p.spec.manager in
  if not (List.mem key !keys) then keys := !keys @ [ key ];
  add t (key ^ ".alloc_s") alloc_s;
  add t (key ^ ".free_s") free_s;
  add t (key ^ ".wall_s") wt;
  (* The adversary alone: the same program against the replay manager. *)
  let o, rt, _ =
    timed_run ~wrap:(fun inner -> Probe.replayer ~name:(Pc_manager.Manager.name inner) s) p
  in
  check_run "replay manager" o;
  add t "replayer" rt;
  (* The substrate, from the recorded stream. *)
  Gc.full_major ();
  let rep = Probe.replay_heap s in
  let heap = rep.heap in
  check
    (Pc_heap.Heap.high_water heap = r.hs
    && Pc_heap.Heap.live_words heap = r.final_live
    && Pc_heap.Heap.moved_total heap = r.moved)
    "replay of %s does not reproduce HS %d" (Spec.key p.spec) r.hs;
  add t "sub_af" (Probe.secs rep.alloc_free_ns);
  add t "sub_mv" (Probe.secs rep.move_ns);
  add t "sub_words" rep.minor_words;
  let heap_gaps = Pc_heap.Free_index.gaps (Pc_heap.Heap.free_index heap) in
  Gc.full_major ();
  let refrep = Probe.replay_heap ~backend:Pc_heap.Backend.Reference s in
  check (Pc_heap.Heap.high_water refrep.heap = r.hs)
    "reference replay of %s does not reproduce HS %d" (Spec.key p.spec) r.hs;
  add t "ref_sub" (Probe.secs (refrep.alloc_free_ns + refrep.move_ns));
  Gc.full_major ();
  let fi, fi_s = Probe.replay_free_index s in
  check (Pc_heap.Free_index.gaps fi = heap_gaps)
    "free-index replay of %s ends with other gaps than the heap" (Spec.key p.spec);
  add t "fi" fi_s;
  (* Overlays. *)
  let o, at, aw = timed_run ~audit:Pc_audit.Oracle.Sampled p in
  check_run "audit sampled" o;
  add t "audit" at;
  add t "audit_words" aw;
  let o, ts, _ = with_telemetry Pc_telemetry.Sink.Summary (fun () -> timed_run p) in
  check_run "telemetry summary" o;
  add t "tel_summary" ts;
  let o, tf, _ = with_telemetry Pc_telemetry.Sink.Full (fun () -> timed_run p) in
  check_run "telemetry full" o;
  add t "tel_full" tf

(* The exec layer on the fixed exec grid: the points inline, then
   through the engine cold on one domain, cold on the pool and warm,
   then its cache and journal called directly. *)
let trace_exec t ~root =
  let specs = W.exec_grid () in
  let npoints = float_of_int (List.length specs) in
  Gc.full_major ();
  let results, inline_s = time (fun () -> List.map Engine.execute specs) in
  let outcomes = engine_outcomes results in
  check_pass ~what:"inline engine" specs None outcomes;
  check_digest ~what:"exec grid" ~pinned:W.exec_pinned outcomes;
  let reference = Some (Array.of_list outcomes) in
  add t "inline" inline_s;
  Gc.full_major ();
  let cold = cold_sweep ~jobs:W.exec_jobs ~root specs in
  check_pass ~what:"cold engine" specs reference (engine_outcomes cold.results);
  add t "cold" cold.sweep_s;
  add t "points" (float_of_int cold.summary.total);
  add t "executed" (float_of_int cold.summary.executed);
  Gc.full_major ();
  let pool = cold_sweep ~jobs:W.pool_jobs ~root specs in
  check_pass ~what:"cold engine on the pool" specs reference (engine_outcomes pool.results);
  add t "pool" pool.sweep_s;
  List.iter (fun (r : Engine.job_result) -> add t "job_s" r.elapsed) pool.results;
  rm_rf pool.dir;
  let warm =
    List.init warm_sweeps (fun _ ->
        let outcomes, hits, dt = warm_sweep cold.cache specs in
        check_pass ~what:"warm engine" specs reference outcomes;
        (hits, dt))
  in
  add t "hits" (float_of_int (fst (List.hd warm)));
  add t "hit_us" (median (List.map snd warm) *. 1e6 /. npoints);
  rm_rf cold.dir;
  (* Direct calls, one per point; the journal fsyncs every record, so
     it gets [journal_calls]. *)
  let known =
    List.combine specs outcomes
    |> List.filter_map (fun (spec, o) -> Option.map (fun o -> (spec, o)) o)
    |> Array.of_list
  in
  let calls = Array.length known in
  let dir = fresh_dir root in
  let cache = Cache.create ~dir () in
  let (), store_s =
    time (fun () -> Array.iter (fun (spec, o) -> Cache.store cache spec o) known)
  in
  let found, lookup_s =
    time (fun () -> Array.map (fun (spec, _) -> Cache.lookup cache spec) known)
  in
  Array.iteri
    (fun k (spec, o) ->
      check
        (match found.(k) with Cache.Hit o' -> outcome_key o' = outcome_key o | _ -> false)
        "cache lookup of %s did not return the stored outcome" (Spec.key spec))
    known;
  let journal = Checkpoint.open_ ~dir:(Filename.concat dir "sweeps") specs in
  let (), journal_s =
    time (fun () ->
        for k = 0 to journal_calls - 1 do
          let spec, o = known.(k mod calls) in
          Checkpoint.record journal spec (Ok o)
        done)
  in
  Checkpoint.close journal;
  rm_rf dir;
  add t "store_us" (store_s *. 1e6 /. float_of_int calls);
  add t "lookup_us" (lookup_s *. 1e6 /. float_of_int calls);
  add t "journal_us" (journal_s *. 1e6 /. float_of_int journal_calls)

let layer_metrics t =
  let g = get t in
  let events = g "events" in
  let manager_s = g "alloc_s" +. g "free_s" in
  let substrate = g "sub_af" +. g "sub_mv" in
  let self_s = g "wt" -. manager_s -. g "sub_af" in
  let direct_s = g "replayer" -. substrate in
  let residual = g "wt" -. (direct_s +. manager_s +. g "sub_af") in
  [
    m "adversary.self_s" "s" self_s;
    m "adversary.share" "ratio" (self_s /. g "wt");
    m "adversary.direct_s" "s" direct_s;
    m "manager.alloc_calls" "count" (g "alloc_calls");
    m "manager.alloc_s" "s" (g "alloc_s");
    m "manager.free_s" "s" (g "free_s");
    m "manager.moves" "count" (g "moves");
    m "manager.moved_words" "words" (g "moved_words");
    m "heap.events" "count" events;
    m "heap.allocs" "count" (g "allocs");
    m "heap.frees" "count" (g "frees");
    m "heap.moves" "count" (g "moves");
    m "heap.substrate_s" "s" substrate;
    m "heap.substrate_ns_per_event" "ns" (substrate *. 1e9 /. events);
    m "heap.substrate_minor_words_per_event" "words/event" (g "sub_words" /. events);
    m "heap.ref_substrate_s" "s" (g "ref_sub");
    m "free_index.replay_s" "s" (g "fi");
    m "audit.sampled_time_overhead" "ratio" ((g "audit" /. g "w0") -. 1.);
    m "audit.sampled_minor_words_overhead" "ratio" ((g "audit_words" /. g "w0_words") -. 1.);
    m "telemetry.summary_time_overhead" "ratio" ((g "tel_summary" /. g "w0") -. 1.);
    m "telemetry.full_time_overhead" "ratio" ((g "tel_full" /. g "w0") -. 1.);
    m "exec.points" "count" (g "points");
    m "exec.executed" "count" (g "executed");
    m "exec.cache_hits" "count" (g "hits");
    m "exec.job_s" "s" (g "job_s");
    m "exec.inline_s" "s" (g "inline");
    m "exec.overhead_s" "s" (g "cold" -. g "inline");
    m "exec.pool_wall_s" "s" (g "pool");
    m "exec.contention" "ratio" (g "job_s" /. g "inline");
    m "exec.hit_us" "us" (g "hit_us");
    m "exec.cache_store_us" "us" (g "store_us");
    m "exec.cache_lookup_us" "us" (g "lookup_us");
    m "exec.journal_record_us" "us" (g "journal_us");
    m "trace.overhead" "ratio" ((g "wt" /. g "w0") -. 1.);
    m "attribution.residual_s" "s" residual;
    m "attribution.residual_share" "ratio" (residual /. g "wt");
  ]

let traced w ~seed ~seconds ~root =
  let s = setup w ~seed in
  check_pinned w ~seed s;
  let points = List.concat_map (fun g -> Array.to_list g.points) s.groups in
  let keys = ref [] in
  let deadline = now () +. seconds in
  let rec loop acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      let t = tally () in
      List.iteri
        (fun i p ->
          match s.reference.(i) with
          | Some r -> trace_point t keys r p
          | None -> check false "%s raised in set-up and is not traced" (Spec.key p.spec))
        points;
      trace_exec t ~root;
      loop (t :: acc)
    end
  in
  let iterations = loop [] in
  let med f = median (List.map f iterations) in
  let per_iteration = List.map layer_metrics iterations in
  let metrics =
    List.mapi
      (fun i x -> { x with value = median (List.map (fun l -> (List.nth l i).value) per_iteration) })
      (List.hd per_iteration)
  in
  Printf.printf "%d traced iterations of %d points\n" (List.length iterations)
    (List.length points);
  Printf.printf "per manager key (not in the result line):\n";
  print_table
    (List.concat_map
       (fun key ->
         let g k = med (fun t -> get t (key ^ "." ^ k)) in
         [
           m ("manager." ^ key ^ ".alloc_s") "s" (g "alloc_s");
           m ("manager." ^ key ^ ".free_s") "s" (g "free_s");
           m ("manager." ^ key ^ ".share") "ratio" ((g "alloc_s" +. g "free_s") /. g "wall_s");
         ])
       !keys);
  metrics

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10
  and trace = ref 0 and root = ref ".bench_work" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pf-scale | churn-mix");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
      ("--work-dir", Arg.Set_string root, "DIR scratch directory for caches and journals");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match W.of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace takes 0 or 1"; exit 2);
  (try Sys.mkdir !root 0o755 with Sys_error _ -> ());
  let root = Filename.concat !root (Printf.sprintf "p%d" (Unix.getpid ())) in
  rm_rf root;
  Sys.mkdir root 0o755;
  Printf.printf "provenance: %s\n%!"
    (provenance ~workload:!workload ~seed:!seed ~trace:(!trace = 1));
  let seconds = float_of_int !seconds in
  let metrics =
    Fun.protect
      ~finally:(fun () -> rm_rf root)
      (fun () ->
        if !trace = 1 then traced w ~seed:!seed ~seconds ~root
        else end_to_end w ~seed:!seed ~seconds)
  in
  let metrics =
    metrics
    @
    if !trace = 1 then
      [ m "failed_frac" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted)) ]
    else []
  in
  print_table metrics;
  Printf.printf "failed_frac %d/%d\n" !failed (max 1 !attempted);
  print_endline (result_line metrics);
  exit (if !failed = 0 then 0 else 1)
