module Bptree = Dcd_btree.Bptree

(* A sorted index stores each tuple re-ordered by [si_cols] (a full
   permutation of the columns) as a composite B⁺-tree key, giving the
   generic-join path trie iteration in that column order.  [si_scratch]
   is the permutation buffer — [Bptree] copies keys defensively. *)
type sorted_index = {
  si_cols : int array;
  si_tree : unit Bptree.t;
  si_scratch : int array;
}

type t = {
  name : string;
  arity : int;
  tuples : Tuple_set.t;
  mutable indexes : (int array * Hash_index.t) list;
  mutable sorted : sorted_index list;
}

let create ?(size_hint = 16) ~name ~arity () =
  if arity < 0 then invalid_arg "Relation.create";
  { name; arity; tuples = Tuple_set.create ~capacity:size_hint (); indexes = []; sorted = [] }

let name t = t.name

let arity t = t.arity

let length t = Tuple_set.length t.tuples

let add t tup =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Relation.add: arity mismatch on %s (got %d, want %d)" t.name
         (Array.length tup) t.arity);
  let fresh = Tuple_set.add t.tuples tup in
  if fresh then begin
    List.iter (fun (_, idx) -> Hash_index.add idx tup) t.indexes;
    List.iter
      (fun si ->
        for i = 0 to Array.length si.si_cols - 1 do
          si.si_scratch.(i) <- tup.(si.si_cols.(i))
        done;
        ignore (Bptree.add_if_absent si.si_tree si.si_scratch ()))
      t.sorted
  end;
  fresh

let add_slice t data off =
  let fresh = Tuple_set.add_slice t.tuples data off t.arity in
  if fresh then begin
    List.iter (fun (_, idx) -> Hash_index.add_slice idx data off ~arity:t.arity) t.indexes;
    List.iter
      (fun si ->
        for i = 0 to Array.length si.si_cols - 1 do
          si.si_scratch.(i) <- data.(off + si.si_cols.(i))
        done;
        ignore (Bptree.add_if_absent si.si_tree si.si_scratch ()))
      t.sorted
  end;
  fresh

let mem t tup = Tuple_set.mem t.tuples tup

let mem_slice t data off = Tuple_set.mem_slice t.tuples data off t.arity

let iter f t = Tuple_set.iter f t.tuples

let iter_slices t f = Tuple_set.iter_slices t.tuples (fun data off _len -> f data off)

let to_vec t = Tuple_set.to_vec t.tuples

let find_index t ~key_cols =
  List.find_map (fun (cols, idx) -> if cols = key_cols then Some idx else None) t.indexes

let ensure_index t ~key_cols =
  match find_index t ~key_cols with
  | Some idx -> idx
  | None ->
    let idx = Hash_index.create ~size_hint:(length t) ~key_cols () in
    Tuple_set.iter_slices t.tuples (fun data off len ->
        Hash_index.add_slice idx data off ~arity:len);
    t.indexes <- (key_cols, idx) :: t.indexes;
    idx

let indexes t = t.indexes

let find_sorted_index t ~cols =
  List.find_map (fun si -> if si.si_cols = cols then Some si.si_tree else None) t.sorted

(* Prefix scan for the serving read path: through the identity-order
   sorted trie when one has been built (one seek + a leaf walk), else a
   filtered full scan.  Sessions pre-build the trie on served
   relations, so the fallback only covers ad-hoc reads. *)
let iter_prefix t ~prefix f =
  let k = Array.length prefix in
  if k > t.arity then invalid_arg "Relation.iter_prefix: prefix longer than arity";
  if k = 0 then iter f t
  else begin
    let identity = Array.init t.arity (fun i -> i) in
    match find_sorted_index t ~cols:identity with
    | Some tree -> Bptree.iter_prefix tree ~prefix (fun key () -> f key)
    | None ->
      iter
        (fun tup ->
          let ok = ref true in
          for i = 0 to k - 1 do
            if tup.(i) <> prefix.(i) then ok := false
          done;
          if !ok then f tup)
        t
  end

let ensure_sorted_index t ~cols =
  if Array.length cols <> t.arity then invalid_arg "Relation.ensure_sorted_index";
  match find_sorted_index t ~cols with
  | Some tree -> tree
  | None ->
    (* bulk path: permute every stored tuple, sort once, load at high
       fill with [of_sorted] — distinct tuples stay distinct under a
       full column permutation, so keys are strictly increasing *)
    let n = length t in
    let keys = Array.make n [||] in
    let i = ref 0 in
    Tuple_set.iter_slices t.tuples (fun data off _len ->
        let k = Array.make t.arity 0 in
        for j = 0 to t.arity - 1 do
          k.(j) <- data.(off + cols.(j))
        done;
        keys.(!i) <- k;
        incr i);
    Array.sort Bptree.compare_key keys;
    let entries = Array.map (fun k -> (k, ())) keys in
    let tree = Bptree.of_sorted entries in
    t.sorted <- { si_cols = Array.copy cols; si_tree = tree; si_scratch = Array.make t.arity 0 } :: t.sorted;
    tree
