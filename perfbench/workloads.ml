(* The benchmark's workloads. Each one is a size series: a list of
   groups of sweep specs, smallest first. A pass runs every group;
   [scaling_exponent] is the least-squares slope of log time against
   log size over the groups. *)

open Pc_exec

type t = Pf_scale | Churn_mix

let all = [ Pf_scale; Churn_mix ]
let name = function Pf_scale -> "pf-scale" | Churn_mix -> "churn-mix"
let of_string s = List.find_opt (fun w -> name w = s) all

type group = { size : int; specs : Spec.t list }

let dist = Pc_adversary.Random_workload.Pow2 { lo_log = 0; hi_log = 6 }

(* PF (Algorithm 1) against the compacting manager at the paper's c=16:
   the paper's own adversary, mostly adversary bookkeeping. The seed
   plays no part: PF is deterministic. *)
let pf_scale () =
  List.map
    (fun log_m ->
      let m = 1 lsl log_m in
      {
        size = m;
        specs = [ Spec.pf ~c:16.0 ~manager:"compacting" ~m ~n:(1 lsl 10) () ];
      })
    [ 14; 16; 18 ]

(* Seeded random churn against four managers of different kinds: the
   adversary is trivial, so heap, free index and policy do the work,
   with free-heavy traffic unlike PF's. Rounds grow with M so the
   series keeps the churn per live word fixed. Each manager runs
   [churn_seeds] independent streams of a quarter of the rounds:
   meshing's minor words per event move by 7% from one seed to the
   next, and the split keeps that from swamping the figures. *)
let churn_managers = [ "first-fit"; "tlsf"; "compacting"; "meshing" ]
let churn_seeds = 4

let churn_mix ~seed =
  List.map
    (fun (log_m, churn) ->
      let m = 1 lsl log_m in
      {
        size = m;
        specs =
          List.concat_map
            (fun manager ->
              List.init churn_seeds (fun j ->
                  Spec.random_churn
                    ~seed:((seed * churn_seeds) + j)
                    ~churn:(churn / churn_seeds) ~c:8.0 ~manager ~m ~dist
                    ~target_live:(m / 2) ()))
            churn_managers;
      })
    [ (16, 100_000); (18, 400_000) ]

let groups w ~seed =
  match w with Pf_scale -> pf_scale () | Churn_mix -> churn_mix ~seed

(* The exec layer's input in traced runs, the same whatever the
   workload and seed: every registry manager on tiny churn points, so
   that the engine's cache writes, fsyncs and pool dispatch are not
   lost in simulation time. Cold passes run on [exec_jobs] domains,
   the pool pass on [pool_jobs]. *)
let exec_grid () =
  List.concat_map
    (fun seed ->
      List.map
        (fun manager ->
          Spec.random_churn ~seed ~churn:200 ~c:8.0 ~manager ~m:(1 lsl 12) ~dist
            ~target_live:(1 lsl 11) ())
        (Pc_manager.Registry.keys ()))
    (List.init 24 (fun i -> i + 1))

let exec_jobs = 1
let pool_jobs = 2

let default_seed = 7

(* Digest of every outcome of a pass at [default_seed] (see
   [Main.outcome_digest]), as measured when the benchmark was
   defined. A change to a manager, an adversary or the heap that alters
   any simulated statistic shows up as a mismatch. *)
let pinned = function
  | Pf_scale -> "0f896b88d5bf282f05dfae0d570d1e33"
  | Churn_mix -> "9bc9724fe7d43da742bba096eb07e64a"

(* The same digest of the exec grid's outcomes. *)
let exec_pinned = "d31d51d07217feab63d3e18f9f87d6c2"
