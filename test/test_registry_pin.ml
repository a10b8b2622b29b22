open Pc_adversary

(* Outcome pins of the paper's adversaries against every registry
   manager. PF (c = 8 and 16) and Robson's PR, each at M = 4096 and
   n = 64: the heap size, moved and freed words and final live words
   of every run are fixed by the table below.

   These numbers depend on more than placement policy: the iteration
   order of the adversary's bookkeeping (View's record table and the
   association's chunk table) decides which same-size entries PF drops
   and the order in which Robson frees its doomed objects, and several
   managers (buddy, segregated, meshing, compact-fit, cost-oblivious)
   see that free order through [on_free]. A change to the adversary's
   data structures that is meant to be behaviour-preserving must leave
   every row as it is.

   On a mismatch the failure message lists every row as it is now, in
   the table's own syntax. *)

type row = {
  manager : string;
  hs : int;
  moved : int;
  freed : int;
  final_live : int;
}

let m = 1 lsl 12
let n = 1 lsl 6

(* PF at c = 8. *)
let pf_c8 : row list =
  [
    { manager = "first-fit"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "next-fit"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "best-fit"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "worst-fit"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "aligned-fit"; hs = 7168; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "buddy"; hs = 7168; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "segregated"; hs = 7520; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "tlsf"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "compacting"; hs = 6141; moved = 992; freed = 4064; final_live = 4064 };
    { manager = "bp-simple"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "improved-ac"; hs = 6144; moved = 992; freed = 4064; final_live = 4064 };
    { manager = "semispace"; hs = 7168; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "sliding"; hs = 7167; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "meshing"; hs = 7200; moved = 0; freed = 3072; final_live = 4096 };
    { manager = "compact-fit"; hs = 6208; moved = 1008; freed = 4080; final_live = 4048 };
    { manager = "cost-oblivious"; hs = 7552; moved = 820; freed = 3645; final_live = 4033 };
    { manager = "polylog-realloc"; hs = 6656; moved = 512; freed = 3584; final_live = 4096 };
  ]

(* PF at c = 16. *)
let pf_c16 : row list =
  [
    { manager = "first-fit"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "next-fit"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "best-fit"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "worst-fit"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "aligned-fit"; hs = 9024; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "buddy"; hs = 9024; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "segregated"; hs = 9024; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "tlsf"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "compacting"; hs = 7485; moved = 560; freed = 6528; final_live = 2496 };
    { manager = "bp-simple"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "improved-ac"; hs = 6784; moved = 560; freed = 6704; final_live = 2320 };
    { manager = "semispace"; hs = 9024; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "sliding"; hs = 9013; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "meshing"; hs = 9024; moved = 0; freed = 6144; final_live = 2880 };
    { manager = "compact-fit"; hs = 7552; moved = 560; freed = 6512; final_live = 2512 };
    { manager = "cost-oblivious"; hs = 8768; moved = 484; freed = 6256; final_live = 2762 };
    { manager = "polylog-realloc"; hs = 7680; moved = 512; freed = 6528; final_live = 2496 };
  ]

(* Robson's PR, unbudgeted (as [pc simulate --program robson] runs it). *)
let robson : row list =
  [
    { manager = "first-fit"; hs = 16321; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "next-fit"; hs = 16321; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "best-fit"; hs = 16321; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "worst-fit"; hs = 16321; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "aligned-fit"; hs = 16384; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "buddy"; hs = 16384; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "segregated"; hs = 16384; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "tlsf"; hs = 16321; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "compacting"; hs = 4096; moved = 3664; freed = 13343; final_live = 3041 };
    { manager = "bp-simple"; hs = 8189; moved = 3839; freed = 14335; final_live = 2049 };
    { manager = "improved-ac"; hs = 4096; moved = 3664; freed = 13343; final_live = 3041 };
    { manager = "semispace"; hs = 16384; moved = 3840; freed = 14336; final_live = 2048 };
    { manager = "sliding"; hs = 8200; moved = 2047; freed = 12543; final_live = 3841 };
    { manager = "meshing"; hs = 16384; moved = 0; freed = 12288; final_live = 4096 };
    { manager = "compact-fit"; hs = 4096; moved = 6976; freed = 14273; final_live = 2111 };
    { manager = "cost-oblivious"; hs = 9248; moved = 15876; freed = 15994; final_live = 304 };
    { manager = "polylog-realloc"; hs = 8256; moved = 3583; freed = 12543; final_live = 3841 };
  ]

let row_of_outcome manager (o : Runner.outcome) =
  { manager; hs = o.hs; moved = o.moved; freed = o.freed;
    final_live = o.final_live }

let pp_row ppf r =
  Fmt.pf ppf
    "{ manager = %S; hs = %d; moved = %d; freed = %d; final_live = %d };"
    r.manager r.hs r.moved r.freed r.final_live

let check_table ~name ~run expected () =
  let actual =
    List.map
      (fun key ->
        let manager = Pc_manager.Registry.construct_exn key in
        row_of_outcome key (run manager))
      (Pc_manager.Registry.keys ())
  in
  if actual <> expected then
    Alcotest.failf "%s outcomes drifted; they are now:@.%a" name
      Fmt.(list ~sep:cut pp_row)
      actual

let pf ~c manager =
  let _, program = Pf.program ~m ~n ~c () in
  Runner.run ~c ~program ~manager ()

let robson_run manager =
  Runner.run ~program:(Robson_pr.program ~m ~n ()) ~manager ()

let () =
  Alcotest.run "registry_pin"
    [
      ( "pin",
        [
          Alcotest.test_case "pf c=8 every manager" `Quick
            (check_table ~name:"pf c=8" ~run:(pf ~c:8.0) pf_c8);
          Alcotest.test_case "pf c=16 every manager" `Quick
            (check_table ~name:"pf c=16" ~run:(pf ~c:16.0) pf_c16);
          Alcotest.test_case "robson every manager" `Quick
            (check_table ~name:"robson" ~run:robson_run robson);
        ] );
    ]
