module Vec = Dcd_util.Vec

(* Flat storage: every stored tuple lives in [data] as
   [len; field_0; ...; field_{len-1}], appended in insertion order.  The
   probe table maps hash slots to flat offsets (+1, 0 = empty), so the
   set holds no per-tuple heap object — dedup probes hash and compare
   straight out of the flat buffer, and iteration is a sequential walk
   of [data].  Mixed arities are legal (the aggregate tables key
   [group ++ contributor] tuples whose width differs from the group's).

   Deletion is deliberately unsupported — Datalog relations only grow
   during bottom-up evaluation — which is what makes the append-only
   flat layout sufficient. *)

type t = {
  mutable table : int array; (* flat offset + 1; 0 = empty *)
  mutable mask : int;
  mutable size : int;
  mutable data : int array;
  mutable used : int; (* ints consumed in [data] *)
}

let initial = 16

let create ?(capacity = initial) () =
  let rec pow2 p n = if p >= n then p else pow2 (p * 2) n in
  let cap = pow2 initial capacity in
  { table = Array.make cap 0; mask = cap - 1; size = 0; data = Array.make (cap * 3) 0; used = 0 }

let length t = t.size

(* probe for the tuple stored flat at [src.(off .. off+len-1)]; returns
   the table index where it lives or where it would be inserted *)
let probe t h (src : int array) off len =
  (* while + non-escaping refs: the refs stay in registers, and no
     closure is allocated per probe (a local [let rec] would be) *)
  let table = t.table and mask = t.mask and data = t.data in
  let i = ref (h land mask) in
  let found = ref (-1) in
  while !found < 0 do
    let e = Array.unsafe_get table !i in
    if e = 0 then found := !i
    else begin
      let stored = e - 1 in
      if Array.unsafe_get data stored = len && Tuple.equal_slices data (stored + 1) src off len
      then found := !i
      else i := (!i + 1) land mask
    end
  done;
  !found

let grow_table t =
  let cap = (t.mask + 1) * 2 in
  let table' = Array.make cap 0 in
  let mask' = cap - 1 in
  let data = t.data in
  Array.iter
    (fun e ->
      if e <> 0 then begin
        let stored = e - 1 in
        let len = data.(stored) in
        let h = Tuple.hash_slice data ~off:(stored + 1) ~len in
        let i = ref (h land mask') in
        while table'.(!i) <> 0 do
          i := (!i + 1) land mask'
        done;
        table'.(!i) <- e
      end)
    t.table;
  t.table <- table';
  t.mask <- mask'

let ensure_data t extra =
  if t.used + extra > Array.length t.data then begin
    let cap = max (t.used + extra) (max 16 (Array.length t.data * 2)) in
    let data' = Array.make cap 0 in
    Array.blit t.data 0 data' 0 t.used;
    t.data <- data'
  end

let store t (src : int array) off len =
  ensure_data t (len + 1);
  let at = t.used in
  t.data.(at) <- len;
  Array.blit src off t.data (at + 1) len;
  t.used <- at + len + 1;
  at

let add_slice t (src : int array) off len =
  if t.size * 4 >= (t.mask + 1) * 3 then grow_table t;
  let h = Tuple.hash_slice src ~off ~len in
  let i = probe t h src off len in
  if t.table.(i) <> 0 then false
  else begin
    let at = store t src off len in
    t.table.(i) <- at + 1;
    t.size <- t.size + 1;
    true
  end

let add t (tup : Tuple.t) = add_slice t tup 0 (Array.length tup)

let mem_slice t (src : int array) off len =
  let h = Tuple.hash_slice src ~off ~len in
  t.table.(probe t h src off len) <> 0

let mem t (tup : Tuple.t) = mem_slice t tup 0 (Array.length tup)

let watermark t = t.used

(* tuples stored at flat offsets >= [mark], in insertion order *)
let iter_slices_from t mark f =
  if mark < 0 || mark > t.used then invalid_arg "Tuple_set.iter_slices_from";
  let data = t.data in
  let off = ref mark in
  while !off < t.used do
    let len = data.(!off) in
    f data (!off + 1) len;
    off := !off + len + 1
  done

let iter_slices t f = iter_slices_from t 0 f

(* Rollback to a watermark: drop the flat suffix and re-point the probe
   table at the surviving prefix.  Surviving tuples are distinct, so
   each one just takes the first empty slot of its probe sequence. *)
let truncate t mark =
  if mark < 0 || mark > t.used then invalid_arg "Tuple_set.truncate";
  Array.fill t.table 0 (t.mask + 1) 0;
  t.size <- 0;
  t.used <- mark;
  let table = t.table and mask = t.mask in
  iter_slices t (fun data off len ->
      let i = ref (Tuple.hash_slice data ~off ~len land mask) in
      while table.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      table.(!i) <- off;
      t.size <- t.size + 1)

let iter f t = iter_slices t (fun data off len -> f (Array.sub data off len))

let fold f acc t =
  let acc = ref acc in
  iter (fun tup -> acc := f !acc tup) t;
  !acc

let to_vec t =
  let v = Vec.create ~capacity:t.size () in
  iter (fun tup -> Vec.push v tup) t;
  v

let clear t =
  Array.fill t.table 0 (t.mask + 1) 0;
  t.size <- 0;
  t.used <- 0

let load_factor t = float_of_int t.size /. float_of_int (t.mask + 1)
