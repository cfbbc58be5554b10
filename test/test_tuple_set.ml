module Ts = Dcd_storage.Tuple_set

let test_add_dedup () =
  let s = Ts.create () in
  Alcotest.(check bool) "first add fresh" true (Ts.add s [| 1; 2 |]);
  Alcotest.(check bool) "duplicate rejected" false (Ts.add s [| 1; 2 |]);
  Alcotest.(check bool) "distinct accepted" true (Ts.add s [| 2; 1 |]);
  Alcotest.(check int) "length" 2 (Ts.length s);
  Alcotest.(check bool) "mem" true (Ts.mem s [| 1; 2 |]);
  Alcotest.(check bool) "not mem" false (Ts.mem s [| 9; 9 |])

let test_empty_tuple_is_storable () =
  let s = Ts.create () in
  Alcotest.(check bool) "zero-arity tuple" true (Ts.add s [||]);
  Alcotest.(check bool) "zero-arity dedup" false (Ts.add s [||]);
  Alcotest.(check bool) "zero-arity mem" true (Ts.mem s [||])

let test_growth () =
  let s = Ts.create ~capacity:4 () in
  for i = 0 to 9999 do
    ignore (Ts.add s [| i; i * 3 |])
  done;
  Alcotest.(check int) "all kept through growth" 10000 (Ts.length s);
  Alcotest.(check bool) "load factor sane" true (Ts.load_factor s <= 0.76);
  for i = 0 to 9999 do
    if not (Ts.mem s [| i; i * 3 |]) then Alcotest.fail "lost a tuple during growth"
  done

let test_iter_fold_clear () =
  let s = Ts.create () in
  List.iter (fun t -> ignore (Ts.add s t)) [ [| 1 |]; [| 2 |]; [| 3 |] ];
  Alcotest.(check int) "fold sum" 6 (Ts.fold (fun acc t -> acc + t.(0)) 0 s);
  Alcotest.(check int) "to_vec size" 3 (Dcd_util.Vec.length (Ts.to_vec s));
  Ts.clear s;
  Alcotest.(check int) "cleared" 0 (Ts.length s);
  Alcotest.(check bool) "add after clear" true (Ts.add s [| 1 |])

let test_watermark_truncate () =
  let s = Ts.create ~capacity:2 () in
  List.iter (fun t -> ignore (Ts.add s t)) [ [| 1; 1 |]; [| 2 |] ];
  let mark = Ts.watermark s in
  (* enough inserts past the mark to grow the probe table *)
  for i = 0 to 99 do
    ignore (Ts.add s [| i; i; i |])
  done;
  let since = ref [] in
  Ts.iter_slices_from s mark (fun data off len -> since := Array.sub data off len :: !since);
  Alcotest.(check int) "iter_slices_from sees only later inserts" 100 (List.length !since);
  Alcotest.(check (list int)) "in insertion order" [ 0; 0; 0 ] (Array.to_list (List.hd (List.rev !since)));
  Ts.truncate s mark;
  Alcotest.(check int) "length back at the mark" 2 (Ts.length s);
  Alcotest.(check bool) "survivor still a member" true (Ts.mem s [| 1; 1 |]);
  Alcotest.(check bool) "dropped tuple gone" false (Ts.mem s [| 5; 5; 5 |]);
  Alcotest.(check bool) "survivor still dedups" false (Ts.add s [| 2 |]);
  Alcotest.(check bool) "dropped tuple fresh again" true (Ts.add s [| 5; 5; 5 |]);
  Alcotest.(check int) "length after re-insert" 3 (Ts.length s);
  match Ts.truncate s (Ts.watermark s + 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a watermark past the end must be rejected"

module Model = Set.Make (struct
  type t = int list

  let compare = compare
end)

let prop_matches_set_model =
  QCheck.Test.make ~name:"matches a Set model" ~count:100
    QCheck.(list (list_of_size (QCheck.Gen.int_range 0 3) (int_range 0 20)))
    (fun tuples ->
      let s = Ts.create () in
      let model = ref Model.empty in
      List.for_all
        (fun t ->
          let fresh_model = not (Model.mem t !model) in
          model := Model.add t !model;
          let fresh = Ts.add s (Array.of_list t) in
          fresh = fresh_model)
        tuples
      && Ts.length s = Model.cardinal !model)

let () =
  Alcotest.run "tuple_set"
    [
      ( "unit",
        [
          Alcotest.test_case "add dedup" `Quick test_add_dedup;
          Alcotest.test_case "empty tuple storable" `Quick test_empty_tuple_is_storable;
          Alcotest.test_case "growth" `Quick test_growth;
          Alcotest.test_case "iter/fold/clear" `Quick test_iter_fold_clear;
          Alcotest.test_case "watermark/truncate" `Quick test_watermark_truncate;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_matches_set_model ]);
    ]
