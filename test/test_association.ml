open Pc_heap
open Pc_adversary

let oid = Oid.of_int
let check_int = Alcotest.(check int)

let test_whole_entries () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Association.assoc_whole a (oid 2) ~obj_size:2 ~chunk:0;
  Association.assoc_whole a (oid 3) ~obj_size:8 ~chunk:5;
  check_int "sum chunk 0" 6 (Association.sum a 0);
  check_int "sum chunk 5" 8 (Association.sum a 5);
  check_int "sum empty chunk" 0 (Association.sum a 7);
  Alcotest.(check (list int)) "locs" [ 0 ] (Association.locs_of a (oid 1));
  check_int "chunk count" 2 (Association.chunk_count a);
  Association.check_invariants a

let test_halves () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  check_int "half in chunk 0" 4 (Association.sum a 0);
  check_int "half in chunk 2" 4 (Association.sum a 2);
  Alcotest.(check (list int)) "two locs" [ 2; 0 ]
    (List.sort (fun x y -> compare y x) (Association.locs_of a (oid 1)));
  (* same-chunk halves collapse to a whole *)
  Association.assoc_halves a (oid 2) ~obj_size:8 ~chunk1:1 ~chunk2:1;
  check_int "collapsed whole" 8 (Association.sum a 1);
  Association.check_invariants a

let test_migrate_half () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  let e = List.hd (Association.entries a 0) in
  (match Association.migrate_half a ~from_idx:0 e with
  | Some dest ->
      check_int "destination is partner chunk" 2 dest;
      check_int "source emptied" 0 (Association.sum a 0);
      check_int "whole at destination" 8 (Association.sum a 2);
      Alcotest.(check bool) "entry is whole now" true
        (match Association.entries a 2 with
        | [ e ] -> not e.half
        | _ -> false)
  | None -> Alcotest.fail "expected a destination");
  Association.check_invariants a

let test_migrate_orphan_half () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:0 ~chunk2:2;
  (* reuse chunk 2 (its entries drop), leaving an orphaned half at 0 *)
  let vanished = Association.reset_chunk a 2 in
  Alcotest.(check (list int)) "nothing fully vanished yet" []
    (List.map Oid.to_int vanished);
  let e = List.hd (Association.entries a 0) in
  Alcotest.(check bool) "orphan migration returns None" true
    (Association.migrate_half a ~from_idx:0 e = None);
  Alcotest.(check (list int)) "no locs left" []
    (Association.locs_of a (oid 1));
  Association.check_invariants a

let test_reset_chunk () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Association.assoc_halves a (oid 2) ~obj_size:8 ~chunk1:0 ~chunk2:3;
  let vanished = Association.reset_chunk a 0 in
  Alcotest.(check (list int)) "whole-only object vanished" [ 1 ]
    (List.map Oid.to_int vanished);
  check_int "chunk emptied" 0 (Association.sum a 0);
  check_int "other half survives" 4 (Association.sum a 3);
  Association.check_invariants a

let test_middle_set () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.set_middle a 4;
  Alcotest.(check bool) "middle" true (Association.is_middle a 4);
  (* associating clears the middle flag *)
  Association.assoc_whole a (oid 1) ~obj_size:2 ~chunk:4;
  Alcotest.(check bool) "cleared by association" false (Association.is_middle a 4);
  (* a step change empties E *)
  Association.set_middle a 6;
  Association.merge_step a;
  Alcotest.(check bool) "cleared by step change" false (Association.is_middle a 3);
  Association.check_invariants a

let test_merge_step () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:2 ~chunk:0;
  Association.assoc_whole a (oid 2) ~obj_size:4 ~chunk:1;
  (* halves of oid 3 sit in chunks 2 and 3, which merge into chunk 1 *)
  Association.assoc_halves a (oid 3) ~obj_size:8 ~chunk1:2 ~chunk2:3;
  (* halves of oid 4 sit in chunks 5 and 6, which merge into 2 and 3 *)
  Association.assoc_halves a (oid 4) ~obj_size:16 ~chunk1:5 ~chunk2:6;
  Association.merge_step a;
  check_int "chunk size doubled" 4 (Association.chunk_log a);
  check_int "merged sums add" 6 (Association.sum a 0);
  check_int "half pair becomes whole" 8 (Association.sum a 1);
  Alcotest.(check bool) "whole entry" true
    (match Association.entries a 1 with [ e ] -> not e.half | _ -> false);
  check_int "split halves stay halves" 8 (Association.sum a 2);
  check_int "oid4 other half" 8 (Association.sum a 3);
  Alcotest.(check bool) "still halves" true
    (match Association.entries a 2 with [ e ] -> e.half | _ -> false);
  Association.check_invariants a

(* Locations live in oid-indexed arrays that start small; an oid far
   past them must behave like any other. *)
let test_large_oids () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  let big = oid 100_000 in
  Association.assoc_halves a big ~obj_size:8 ~chunk1:4 ~chunk2:5;
  Association.assoc_whole a (oid 7) ~obj_size:2 ~chunk:4;
  Alcotest.(check (list int)) "two locs" [ 4; 5 ]
    (List.sort compare (Association.locs_of a big));
  Alcotest.(check (list int)) "unseen oid" []
    (Association.locs_of a (oid 200_000));
  Association.merge_step a;
  Alcotest.(check (list int)) "pair collapsed" [ 2 ]
    (Association.locs_of a big);
  check_int "merged sum" 10 (Association.sum a 2);
  let vanished = Association.reset_chunk a 2 in
  Alcotest.(check (list int)) "both vanish" [ 7; 100_000 ]
    (List.sort compare (List.map Oid.to_int vanished));
  Association.check_invariants a

(* A half pair whose chunks merge collapses to one whole entry and one
   location; a pair split across merged chunks keeps two halves and
   two (halved) locations. *)
let test_merge_step_locations () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:6 ~chunk2:7;
  Association.assoc_halves a (oid 2) ~obj_size:8 ~chunk1:5 ~chunk2:6;
  Association.assoc_whole a (oid 3) ~obj_size:2 ~chunk:6;
  Association.merge_step a;
  Alcotest.(check (list int)) "collapsed pair" [ 3 ]
    (Association.locs_of a (oid 1));
  Alcotest.(check (list int)) "split pair" [ 2; 3 ]
    (List.sort compare (Association.locs_of a (oid 2)));
  Alcotest.(check (list int)) "whole" [ 3 ] (Association.locs_of a (oid 3));
  let halves idx =
    List.map
      (fun (e : Association.entry) -> (Oid.to_int e.oid, e.half))
      (Association.entries a idx)
    |> List.sort compare
  in
  Alcotest.(check (list (pair int bool))) "chunk 3"
    [ (1, false); (2, true); (3, false) ]
    (halves 3);
  Alcotest.(check (list (pair int bool))) "chunk 2" [ (2, true) ] (halves 2);
  (* the split pair collapses one step later *)
  Association.merge_step a;
  Alcotest.(check (list int)) "collapsed later" [ 1 ]
    (Association.locs_of a (oid 2));
  check_int "sum" 18 (Association.sum a 1);
  Association.check_invariants a

let test_three_locations () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  Association.assoc_whole a (oid 1) ~obj_size:4 ~chunk:0;
  Alcotest.check_raises "third location"
    (Invalid_argument "Association: more than two locations") (fun () ->
      Association.assoc_halves a (oid 1) ~obj_size:8 ~chunk1:1 ~chunk2:2);
  check_int "third chunk untouched" 0 (Association.sum a 2);
  Alcotest.(check (list int)) "two locs kept" [ 0; 1 ]
    (List.sort compare (Association.locs_of a (oid 1)))

let test_potential () =
  let a = Association.create ~chunk_log:3 ~ell:2 in
  let n = 64 in
  (* chunk words 8, ell 2: u_D = min(4 * sum, 8) *)
  Association.assoc_whole a (oid 1) ~obj_size:1 ~chunk:0;
  (* u_0 = 4 *)
  Association.assoc_whole a (oid 2) ~obj_size:8 ~chunk:1;
  (* u_1 = 8 (capped) *)
  Association.set_middle a 2;
  (* u_2 = 8 *)
  check_int "potential" (4 + 8 + 8 - (n / 4)) (Association.potential a ~n)

let test_create_validation () =
  Alcotest.check_raises "ell >= 1"
    (Invalid_argument "Association.create: need l >= 1") (fun () ->
      ignore (Association.create ~chunk_log:3 ~ell:0))

(* The chunks whose entries hold an oid, one per entry, found by a scan
   of every chunk. *)
let scanned_locs a o =
  List.concat_map
    (fun idx ->
      List.filter_map
        (fun (e : Association.entry) ->
          if Oid.to_int e.oid = o then Some idx else None)
        (Association.entries a idx))
    (Association.chunk_indices a)
  |> List.sort compare

(* Random association scripts keep the structural invariants — checked
   after every step, and the scripts also exercise [merge_step] (the
   between-steps chunk-size doubling of PF). After every step [locs_of]
   must name exactly the chunks a scan finds each oid in. Oids start
   near the location arrays' initial capacity, so scripts grow them. *)
let prop_random_scripts =
  QCheck.Test.make ~name:"random scripts keep invariants" ~count:50
    QCheck.(pair (int_bound 100_000) (int_range 5 80))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed |] in
      let a = Association.create ~chunk_log:3 ~ell:2 in
      let first = 200 in
      let next = ref first in
      for _ = 1 to steps do
        (match Random.State.int st 6 with
        | 0 ->
            incr next;
            Association.assoc_whole a (oid !next)
              ~obj_size:(1 lsl Random.State.int st 4)
              ~chunk:(Random.State.int st 8)
        | 1 ->
            incr next;
            let c1 = Random.State.int st 8 in
            let c2 = Random.State.int st 8 in
            Association.assoc_halves a (oid !next)
              ~obj_size:(2 lsl Random.State.int st 3)
              ~chunk1:c1 ~chunk2:c2
        | 2 -> ignore (Association.reset_chunk a (Random.State.int st 8))
        | 3 -> (
            let idx = Random.State.int st 8 in
            match Association.entries a idx with
            | e :: _ when e.half ->
                ignore (Association.migrate_half a ~from_idx:idx e)
            | e :: _ -> Association.remove_entry a idx e
            | [] -> ())
        | 4 ->
            (* only reset (empty) chunks can join E, as in PF line 14 *)
            let idx = Random.State.int st 8 in
            ignore (Association.reset_chunk a idx);
            Association.set_middle a idx
        | _ ->
            (* keep chunk sizes bounded across long scripts *)
            if Association.chunk_log a < 16 then Association.merge_step a);
        Association.check_invariants a;
        for o = first + 1 to !next do
          if List.sort compare (Association.locs_of a (oid o))
             <> scanned_locs a o
          then QCheck.Test.fail_reportf "locs_of drifted for oid %d" o
        done
      done;
      true)

let () =
  Alcotest.run "association"
    [
      ( "unit",
        [
          Alcotest.test_case "whole entries" `Quick test_whole_entries;
          Alcotest.test_case "halves" `Quick test_halves;
          Alcotest.test_case "migrate half" `Quick test_migrate_half;
          Alcotest.test_case "orphan half" `Quick test_migrate_orphan_half;
          Alcotest.test_case "reset chunk" `Quick test_reset_chunk;
          Alcotest.test_case "middle set" `Quick test_middle_set;
          Alcotest.test_case "merge step" `Quick test_merge_step;
          Alcotest.test_case "merge step locations" `Quick
            test_merge_step_locations;
          Alcotest.test_case "large oids" `Quick test_large_oids;
          Alcotest.test_case "three locations" `Quick test_three_locations;
          Alcotest.test_case "potential" `Quick test_potential;
          Alcotest.test_case "validation" `Quick test_create_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_scripts ]);
    ]
