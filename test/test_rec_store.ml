open Dcd_datalog
module Rs = Dcd_engine.Rec_store

let tuple_list = Alcotest.(list (list int))

let matches store key =
  let out = ref [] in
  Rs.iter_matches store ~key (fun data off ->
      out := Array.to_list (Array.sub data off (Array.length data - off)) :: !out);
  List.sort compare !out

let all_opts = [ ("optimized", Rs.default_opts); ("unoptimized", Rs.unoptimized_opts) ]

let for_all_opts f () = List.iter (fun (_, opts) -> f opts) all_opts

let test_set_store opts =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~probed:true ~opts () in
  Alcotest.(check bool) "fresh tuple" true (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] <> None);
  Alcotest.(check bool) "duplicate absorbed" true
    (Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] = None);
  ignore (Rs.merge s ~tuple:[| 1; 3 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 9 |] ~contributor:[||]);
  Alcotest.(check int) "length" 3 (Rs.length s);
  Alcotest.check tuple_list "route matches" [ [ 1; 2 ]; [ 1; 3 ] ] (matches s [| 1 |])

let test_set_store_route1 opts =
  (* route on the SECOND column: permutation must still return canonical tuples *)
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 1 |] ~probed:true ~opts () in
  ignore (Rs.merge s ~tuple:[| 1; 7 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 7 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 3; 8 |] ~contributor:[||]);
  Alcotest.check tuple_list "match by col 1, canonical order" [ [ 1; 7 ]; [ 2; 7 ] ]
    (matches s [| 7 |])

let test_agg_min opts =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] ~probed:true ~opts () in
  (match Rs.merge s ~tuple:[| 1; 5 |] ~contributor:[||] with
  | Some t -> Alcotest.(check (list int)) "first" [ 1; 5 ] (Array.to_list t)
  | None -> Alcotest.fail "first merge must change");
  Alcotest.(check bool) "worse absorbed" true (Rs.merge s ~tuple:[| 1; 9 |] ~contributor:[||] = None);
  (match Rs.merge s ~tuple:[| 1; 2 |] ~contributor:[||] with
  | Some t -> Alcotest.(check (list int)) "improved delta carries new value" [ 1; 2 ] (Array.to_list t)
  | None -> Alcotest.fail "improvement must be emitted");
  Alcotest.check tuple_list "lookup sees the aggregate" [ [ 1; 2 ] ] (matches s [| 1 |])

let test_agg_value_not_in_route opts =
  (* APSP-style: path(A, B, min<D>), route by B (col 1), group (A, B) *)
  let s = Rs.create ~arity:3 ~agg:(Some (2, Ast.Min)) ~route:[| 1 |] ~probed:true ~opts () in
  ignore (Rs.merge s ~tuple:[| 1; 5; 10 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 2; 5; 20 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 1; 6; 30 |] ~contributor:[||]);
  Alcotest.check tuple_list "prefix by routed group col"
    [ [ 1; 5; 10 ]; [ 2; 5; 20 ] ]
    (matches s [| 5 |]);
  (* improving one group does not disturb the other *)
  ignore (Rs.merge s ~tuple:[| 2; 5; 15 |] ~contributor:[||]);
  Alcotest.check tuple_list "after improvement" [ [ 1; 5; 10 ]; [ 2; 5; 15 ] ] (matches s [| 5 |])

let test_agg_count opts =
  let s = Rs.create ~arity:2 ~agg:(Some (1, Ast.Count)) ~route:[| 0 |] ~probed:true ~opts () in
  (match Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |] with
  | Some t -> Alcotest.(check (list int)) "count 1" [ 7; 1 ] (Array.to_list t)
  | None -> Alcotest.fail "first contributor");
  Alcotest.(check bool) "repeat contributor" true
    (Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 100 |] = None);
  match Rs.merge s ~tuple:[| 7; 0 |] ~contributor:[| 101 |] with
  | Some t -> Alcotest.(check (list int)) "count 2" [ 7; 2 ] (Array.to_list t)
  | None -> Alcotest.fail "second contributor"

let test_cache_stats () =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~probed:true ~opts:Rs.default_opts () in
  ignore (Rs.merge s ~tuple:[| 1; 1 |] ~contributor:[||]);
  ignore (Rs.merge s ~tuple:[| 1; 1 |] ~contributor:[||]);
  (match Rs.cache_stats s with
  | Some (hits, _) -> Alcotest.(check bool) "cache hit recorded" true (hits >= 1)
  | None -> Alcotest.fail "cache should be on by default");
  let s2 = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~probed:true ~opts:Rs.unoptimized_opts () in
  Alcotest.(check bool) "no cache when off" true (Rs.cache_stats s2 = None)

(* --- batch-sorted staging path ------------------------------------ *)

(* a slice of an arity-2 store ([on_fresh], [iter_slices]), as a list *)
let slice data off = Array.to_list (Array.sub data off 2)

let dump s =
  let out = ref [] in
  Rs.iter_slices s (fun d o -> out := slice d o :: !out);
  List.sort compare !out

let test_stage_and_merge_run opts =
  let s = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~probed:true ~opts () in
  let stage tup =
    Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0
  in
  stage [| 3; 1 |];
  stage [| 1; 2 |];
  stage [| 3; 1 |];
  (* in-run duplicate *)
  stage [| 2; 9 |];
  Alcotest.(check int) "staged counts candidates" 4 (Rs.staged s);
  Alcotest.(check int) "index untouched before merge_run" 0 (Rs.length s);
  let fresh = ref [] in
  let merged, dups = Rs.merge_run s ~on_fresh:(fun d o -> fresh := slice d o :: !fresh) in
  Alcotest.(check int) "staged drained" 0 (Rs.staged s);
  Alcotest.(check int) "merged = unique candidates" 3 merged;
  Alcotest.(check int) "in-run duplicate dropped" 1 dups;
  Alcotest.check tuple_list "deltas in key order" [ [ 1; 2 ]; [ 2; 9 ]; [ 3; 1 ] ]
    (List.rev !fresh);
  (* a second run: cross-run duplicates absorbed, fresh tuples kept *)
  stage [| 1; 2 |];
  stage [| 4; 4 |];
  let fresh2 = ref [] in
  let merged2, _ = Rs.merge_run s ~on_fresh:(fun d o -> fresh2 := slice d o :: !fresh2) in
  Alcotest.(check bool) "cross-run duplicate absorbed" true (merged2 <= 2);
  Alcotest.check tuple_list "only the new tuple is a delta" [ [ 4; 4 ] ] !fresh2;
  Alcotest.check (Alcotest.list (Alcotest.list Alcotest.int)) "store contents"
    [ [ 1; 2 ]; [ 2; 9 ]; [ 3; 1 ]; [ 4; 4 ] ]
    (dump s)

(* Differential pinning of the batch path to the per-tuple path: the
   same candidate stream, split into the same drain-sized runs, must
   leave both stores identical and produce equivalent deltas.  The
   per-tuple path may emit several deltas for one aggregate group
   within a run (each monotone improvement); the batch path emits one
   delta per changed group carrying the run's final value — so the
   comparison keys deltas by group and keeps the last per run.  One
   sanctioned divergence: a Sum run whose contributions net to zero
   against an existing group makes the per-tuple path emit a cancelling
   delta pair (ending on the unchanged stored value) where the batch
   path emits nothing — the store states still agree, and skipping the
   no-op delta only removes spurious frontier work. *)
let merge_run_matches_per_tuple ?(probed = true) ~agg ~contrib name =
  let gen =
    QCheck.(
      pair
        (list (triple (int_range 0 8) (int_range 0 30) (int_range 0 3)))
        (list_of_size QCheck.Gen.(int_range 1 5) (int_range 1 40)))
  in
  QCheck.Test.make ~name ~count:80 gen (fun (candidates, chunk_sizes) ->
      let mk () = Rs.create ~arity:2 ~agg ~route:[| 0 |] ~probed ~opts:Rs.default_opts () in
      let a = mk () and b = mk () in
      let group_of tup =
        match agg with
        | None -> tup
        | Some (vpos, _) -> List.filteri (fun i _ -> i <> vpos) tup
      in
      (* split the stream into runs of the generated sizes, cycling;
         the shrinker may empty the size list, so keep a fallback *)
      let runs =
        let sizes = Array.of_list (if chunk_sizes = [] then [ 3 ] else chunk_sizes) in
        let rec go i si acc cur = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | c :: rest ->
            let cur = c :: cur in
            if List.length cur >= sizes.(si mod Array.length sizes) then
              go (i + 1) (si + 1) (List.rev cur :: acc) [] rest
            else go (i + 1) si acc cur rest
        in
        go 0 0 [] [] candidates
      in
      List.for_all
        (fun run ->
          (* path A: per-tuple, keeping the LAST delta per group *)
          let deltas_a = Hashtbl.create 8 in
          List.iter
            (fun (g, v, c) ->
              let tup = [| g; v |] in
              let contributor = if contrib then [| c |] else [||] in
              match Rs.merge a ~tuple:tup ~contributor with
              | Some d -> Hashtbl.replace deltas_a (group_of (Array.to_list d)) (Array.to_list d)
              | None -> ())
            run;
          (* path B: stage the whole run, then one merge_run *)
          let deltas_b = Hashtbl.create 8 in
          List.iter
            (fun (g, v, c) ->
              let tup = [| g; v |] in
              let cdata = if contrib then [| c |] else [||] in
              Rs.stage_slice b ~data:tup ~off:0 ~cdata ~coff:0
                ~clen:(Array.length cdata))
            run;
          let _ = Rs.merge_run b ~on_fresh:(fun data off ->
              let d = Array.to_list (Array.sub data off 2) in
              Hashtbl.replace deltas_b (group_of d) d)
          in
          let db = dump b in
          let is_sum = match agg with Some (_, Ast.Sum) -> true | _ -> false in
          let b_matches_a =
            Hashtbl.fold
              (fun g d acc ->
                acc && (match Hashtbl.find_opt deltas_a g with Some d' -> d' = d | None -> false))
              deltas_b true
          in
          let a_only_are_sum_noops =
            Hashtbl.fold
              (fun g d acc ->
                acc && (Hashtbl.mem deltas_b g || (is_sum && List.mem d db)))
              deltas_a true
          in
          b_matches_a && a_only_are_sum_noops && dump a = db)
        runs)

let test_merge_run_set = merge_run_matches_per_tuple ~agg:None ~contrib:false "set: merge_run = per-tuple merges"
let test_merge_run_flat =
  merge_run_matches_per_tuple ~probed:false ~agg:None ~contrib:false
    "flat set: merge_run = per-tuple merges"
let test_merge_run_min = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Min)) ~contrib:false "min: merge_run = per-tuple merges"
let test_merge_run_max = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Max)) ~contrib:false "max: merge_run = per-tuple merges"
let test_merge_run_count = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Count)) ~contrib:true "count: merge_run = per-tuple merges"
let test_merge_run_sum = merge_run_matches_per_tuple ~agg:(Some (1, Ast.Sum)) ~contrib:true "sum: merge_run = per-tuple merges"

(* --- flat (unprobed) set store ------------------------------------ *)

let flat () = Rs.create ~arity:2 ~agg:None ~route:[| 0 |] ~probed:false ~opts:Rs.default_opts ()

let test_flat_merge_slice () =
  let s = flat () in
  let fresh = ref [] in
  let merge tup =
    Rs.merge_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0 ~on_fresh:(fun d o ->
        fresh := slice d o :: !fresh)
  in
  List.iter merge [ [| 3; 1 |]; [| 1; 2 |]; [| 3; 1 |]; [| 2; 9 |]; [| 1; 2 |] ];
  Alcotest.check tuple_list "each fresh tuple emitted once, in arrival order"
    [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 9 ] ] (List.rev !fresh);
  Alcotest.(check int) "duplicates absorbed" 3 (Rs.length s);
  Alcotest.(check bool) "no existence cache" true (Rs.cache_stats s = None);
  Alcotest.check tuple_list "iteration returns the set" [ [ 1; 2 ]; [ 2; 9 ]; [ 3; 1 ] ] (dump s);
  match Rs.iter_matches s ~key:[| 1 |] (fun _ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "an unprobed store has no route index to probe"

let test_flat_stage_and_merge_run () =
  let s = flat () in
  let stage tup = Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0 in
  List.iter stage [ [| 3; 1 |]; [| 1; 2 |]; [| 3; 1 |]; [| 2; 9 |] ];
  Alcotest.(check int) "staged counts candidates" 4 (Rs.staged s);
  Alcotest.(check int) "deduplicated in place while staging" 3 (Rs.length s);
  let fresh = ref [] in
  let fresh_n, dups = Rs.merge_run s ~on_fresh:(fun d o -> fresh := slice d o :: !fresh) in
  Alcotest.(check int) "staged drained" 0 (Rs.staged s);
  Alcotest.(check int) "fresh count" 3 fresh_n;
  Alcotest.(check int) "duplicate count" 1 dups;
  Alcotest.check tuple_list "deltas in staging order" [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 9 ] ]
    (List.rev !fresh);
  (* a second run: the cross-run duplicate is counted, only the new tuple
     is a delta *)
  List.iter stage [ [| 1; 2 |]; [| 4; 4 |] ];
  let fresh2 = ref [] in
  let fresh_n2, dups2 = Rs.merge_run s ~on_fresh:(fun d o -> fresh2 := slice d o :: !fresh2) in
  Alcotest.(check (pair int int)) "second run counts" (1, 1) (fresh_n2, dups2);
  Alcotest.check tuple_list "only the new tuple is a delta" [ [ 4; 4 ] ] !fresh2;
  Alcotest.(check (pair int int)) "empty run" (0, 0) (Rs.merge_run s ~on_fresh:(fun _ _ -> ()))

let test_flat_iter_is_inserted_set =
  QCheck.Test.make ~name:"flat set: iteration = inserted set" ~count:100
    QCheck.(list (pair (int_range 0 20) (int_range 0 20)))
    (fun pairs ->
      let s = flat () in
      List.iteri
        (fun i (a, b) ->
          (* alternate the two entry points *)
          let tup = [| a; b |] in
          if i mod 2 = 0 then ignore (Rs.merge s ~tuple:tup ~contributor:[||])
          else Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0)
        pairs;
      ignore (Rs.merge_run s ~on_fresh:(fun _ _ -> ()));
      let expected = List.sort_uniq compare (List.map (fun (a, b) -> [ a; b ]) pairs) in
      dump s = expected && Rs.length s = List.length expected)

let test_flat_rollback () =
  let s = flat () in
  let emitted = ref [] in
  let on_fresh d o = emitted := slice d o :: !emitted in
  let stage tup = Rs.stage_slice s ~data:tup ~off:0 ~cdata:tup ~coff:0 ~clen:0 in
  List.iter stage [ [| 1; 2 |]; [| 3; 4 |] ];
  ignore (Rs.merge_run s ~on_fresh);
  let snap = Rs.snapshot s in
  List.iter stage [ [| 5; 6 |]; [| 7; 8 |]; [| 1; 2 |] ];
  ignore (Rs.merge_run s ~on_fresh);
  (* a crashed round may leave candidates staged but not yet emitted *)
  stage [| 9; 9 |];
  Alcotest.(check int) "pre-rollback length" 5 (Rs.length s);
  Alcotest.(check int) "three tuples rolled back" 3 (Rs.rollback s snap);
  Alcotest.(check int) "post-rollback length" 2 (Rs.length s);
  Alcotest.(check int) "nothing staged after rollback" 0 (Rs.staged s);
  Alcotest.check tuple_list "back to the watermark" [ [ 1; 2 ]; [ 3; 4 ] ] (dump s);
  emitted := [];
  List.iter stage [ [| 7; 8 |]; [| 1; 2 |]; [| 9; 9 |] ];
  let fresh_n, dups = Rs.merge_run s ~on_fresh in
  Alcotest.(check (pair int int)) "rolled-back tuples re-derive, survivors dedup" (2, 1)
    (fresh_n, dups);
  Alcotest.check tuple_list "only re-derived tuples are deltas" [ [ 7; 8 ]; [ 9; 9 ] ]
    (List.rev !emitted);
  Alcotest.(check int) "second rollback from the same snapshot" 2 (Rs.rollback s snap);
  Alcotest.check tuple_list "back to the watermark again" [ [ 1; 2 ]; [ 3; 4 ] ] (dump s)

let test_optimized_and_unoptimized_agree =
  QCheck.Test.make ~name:"store contents identical across opts" ~count:60
    QCheck.(list (pair (int_range 0 8) (int_range 0 30)))
    (fun candidates ->
      let mk opts = Rs.create ~arity:2 ~agg:(Some (1, Ast.Min)) ~route:[| 0 |] ~probed:true ~opts () in
      let a = mk Rs.default_opts and b = mk Rs.unoptimized_opts in
      List.iter
        (fun (g, v) ->
          let ra = Rs.merge a ~tuple:[| g; v |] ~contributor:[||] in
          let rb = Rs.merge b ~tuple:[| g; v |] ~contributor:[||] in
          assert ((ra = None) = (rb = None)))
        candidates;
      dump a = dump b)

let () =
  Alcotest.run "rec_store"
    [
      ( "unit",
        [
          Alcotest.test_case "set store" `Quick (for_all_opts test_set_store);
          Alcotest.test_case "set store route 1" `Quick (for_all_opts test_set_store_route1);
          Alcotest.test_case "agg min" `Quick (for_all_opts test_agg_min);
          Alcotest.test_case "agg route != prefix" `Quick (for_all_opts test_agg_value_not_in_route);
          Alcotest.test_case "agg count" `Quick (for_all_opts test_agg_count);
          Alcotest.test_case "cache stats" `Quick test_cache_stats;
          Alcotest.test_case "stage + merge_run" `Quick (for_all_opts test_stage_and_merge_run);
        ] );
      ( "flat",
        [
          Alcotest.test_case "merge_slice dedup" `Quick test_flat_merge_slice;
          Alcotest.test_case "stage + merge_run counts" `Quick test_flat_stage_and_merge_run;
          Alcotest.test_case "snapshot / rollback / re-insert" `Quick test_flat_rollback;
          QCheck_alcotest.to_alcotest test_flat_iter_is_inserted_set;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            test_optimized_and_unoptimized_agree; test_merge_run_set; test_merge_run_flat; test_merge_run_min;
            test_merge_run_max; test_merge_run_count; test_merge_run_sum;
          ] );
    ]
