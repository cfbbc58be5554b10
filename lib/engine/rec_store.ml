open Dcd_datalog
module Tuple = Dcd_storage.Tuple
module Tuple_set = Dcd_storage.Tuple_set
module Arena = Dcd_storage.Arena
module Agg_table = Dcd_storage.Agg_table
module Run_buffer = Dcd_storage.Run_buffer
module Bptree = Dcd_btree.Bptree

type opts = {
  agg_backend : Agg_table.backend;
  use_cache : bool;
  track_log : bool;
}

let default_opts = { agg_backend = Agg_table.Indexed; use_cache = true; track_log = false }

let unoptimized_opts = { agg_backend = Agg_table.Scan; use_cache = false; track_log = false }

let agg_kind_of_ast = function
  | Ast.Min -> Agg_table.Min
  | Ast.Max -> Agg_table.Max
  | Ast.Count -> Agg_table.Count
  | Ast.Sum -> Agg_table.Sum

type store =
  | Flat of {
      (* a set copy no rule probes: canonical tuples in one hash set,
         deduplicated as they are drained *)
      set : Tuple_set.t;
      (* tuples from this watermark on have not been handed to
         [on_fresh] yet *)
      mutable emitted : int;
      (* candidates staged since the last [merge_run]: fresh, and
         already present *)
      mutable staged_fresh : int;
      mutable staged_dups : int;
    }
  | Set of Tuple.t Bptree.t (* permuted tuple -> canonical tuple *)
  | Agg of {
      table : Agg_table.t; (* keyed by route-permuted group *)
      kind : Ast.agg_kind;
      value_pos : int;
    }

type t = {
  arity : int;
  (* canonical column ids in permuted (route-first) order; excludes the
     aggregate value position for aggregate stores *)
  order : int array;
  mutable store : store; (* reassigned only by checkpoint [rollback] *)
  (* append-only insertion log of canonical tuples (Set stores under
     [track_log] only): a checkpoint of a set store is just this log's
     length, and rollback is truncate + index rebuild from the surviving
     prefix.  Invariant: [Arena.length log = Bptree.length tree]. *)
  log : Arena.t option;
  (* batch-sorted merge scratch: candidates staged during a drain, then
     sorted and folded in one co-sequential index walk (merge_run); flat
     stores never touch it *)
  run : Run_buffer.t;
  cache : Exist_cache.t option;
  (* reusable permuted-key buffer: a merge probe that is absorbed (cache
     hit or existing tuple) allocates nothing.  Everything the scratch
     key is handed to either uses it transiently (B⁺-tree search,
     hashtable probe) or copies it on retention (B⁺-tree insert); the
     sites that retain keys themselves (existence cache, flat agg table)
     copy explicitly. *)
  scratch : int array;
}

let permuted_order ~arity ~route ~skip =
  let in_route c = Array.exists (fun r -> r = c) route in
  let rest = ref [] in
  for c = arity - 1 downto 0 do
    if (not (in_route c)) && skip <> Some c then rest := c :: !rest
  done;
  Array.append route (Array.of_list !rest)

let create ~arity ~agg ~route ~probed ~opts () =
  let store, skip =
    match agg with
    | None when not probed ->
      (Flat { set = Tuple_set.create (); emitted = 0; staged_fresh = 0; staged_dups = 0 }, None)
    | None -> (Set (Bptree.create ()), None)
    | Some (value_pos, kind) ->
      ( Agg
          {
            table =
              Agg_table.create ~backend:opts.agg_backend ~kind:(agg_kind_of_ast kind)
                ~group_arity:(arity - 1) ();
            kind;
            value_pos;
          },
        Some value_pos )
  in
  let order = permuted_order ~arity ~route ~skip in
  {
    arity;
    order;
    store;
    log =
      (match store with
      | Set _ when opts.track_log -> Some (Arena.create ~arity ())
      | _ -> None);
    run =
      (* aggregate copies' frames carry a contributor suffix (empty for
         min/max), matching Exchange.contrib *)
      Run_buffer.create ~arity
        ~contrib:(match store with Agg _ -> true | Set _ | Flat _ -> false)
        ~key_cols:order ();
    cache =
      (match store with
      | Flat _ -> None (* the hash set answers "seen before?" itself *)
      | Set _ | Agg _ -> if opts.use_cache then Some (Exist_cache.create ()) else None);
    scratch = Array.make (Array.length order) 0;
  }

(* Fills the scratch buffer with the route-permuted key of the tuple
   stored flat at [data.(off ..)] and returns it.  Valid until the next
   [permute] on the same store. *)
let permute t (data : int array) off =
  let k = t.scratch and order = t.order in
  for i = 0 to Array.length order - 1 do
    Array.unsafe_set k i (Array.unsafe_get data (off + Array.unsafe_get order i))
  done;
  k

(* Rebuilds a canonical tuple from a permuted group key and the
   aggregate value. *)
let canonical_of_group t group value value_pos =
  let out = Array.make t.arity 0 in
  Array.iteri (fun i c -> out.(c) <- group.(i)) t.order;
  out.(value_pos) <- value;
  out

let absorbed_by_cache kind cached candidate =
  match kind with
  | Ast.Min -> candidate >= cached
  | Ast.Max -> candidate <= cached
  | Ast.Count | Ast.Sum -> false (* contributor dedup must still run *)

(* Hands every flat-store tuple not yet emitted to [on_fresh], straight
   out of the set's own buffer. *)
let emit_fresh t ~on_fresh =
  match t.store with
  | Flat f ->
    Tuple_set.iter_slices_from f.set f.emitted (fun data off _len -> on_fresh data off);
    f.emitted <- Tuple_set.watermark f.set
  | Set _ | Agg _ -> ()

(* Core merge over flat cursors: [data.(off ..)] is the candidate in
   canonical order, [cdata.(coff .. coff+clen-1)] its contributor key
   (clen = 0 for none).  Both are read transiently — everything retained
   (B⁺-tree value, cache key, agg contributor) is copied here, so the
   caller may pass scratch buffers or packed-frame slices directly. *)
let merge_slice t ~data ~off ~cdata ~coff ~clen ~on_fresh =
  match t.store with
  | Flat f -> if Tuple_set.add_slice f.set data off t.arity then emit_fresh t ~on_fresh
  | Set tree -> (
    let key = permute t data off in
    match t.cache with
    | Some cache when Exist_cache.find cache key <> None -> ()
    | _ -> (
      (* single descent: probe and insert in one pass; the stored value
         is materialized only on an actual insert *)
      let stored = Bptree.add_if_absent_lazy tree key (fun () -> Array.sub data off t.arity) in
      (* the cache retains its key beyond this call: materialize the scratch *)
      (match t.cache with Some c -> Exist_cache.put c (Array.copy key) 1 | None -> ());
      match stored with
      | Some tuple ->
        (match t.log with Some log -> ignore (Arena.push log tuple) | None -> ());
        on_fresh tuple 0
      | None -> ()))
  | Agg { table; kind; value_pos } -> (
    let group = permute t data off in
    let v = data.(off + value_pos) in
    let cache_absorbs =
      match t.cache with
      | Some cache -> (
        match Exist_cache.find cache group with
        | Some cached -> absorbed_by_cache kind cached v
        | None -> false)
      | None -> false
    in
    if not cache_absorbs then begin
      let contributor = if clen = 0 then None else Some (Array.sub cdata coff clen) in
      match Agg_table.merge table ~group ?contributor v with
      | None -> () (* cache entries are only refreshed on change: any
                      cached value remains a sound monotone bound *)
      | Some updated ->
        (match t.cache with Some c -> Exist_cache.put c (Array.copy group) updated | None -> ());
        on_fresh (canonical_of_group t group updated value_pos) 0
    end)

let merge t ~tuple ~contributor =
  let delta = ref None in
  merge_slice t ~data:tuple ~off:0 ~cdata:contributor ~coff:0
    ~clen:(Array.length contributor) ~on_fresh:(fun data off ->
      delta := Some (Array.sub data off t.arity));
  !delta

(* --- batch-sorted merge path --- *)

(* Stages one candidate into the run instead of merging it immediately.
   The existence cache is still probed here — a hit drops the candidate
   without staging it, exactly like the per-tuple path's front cache —
   but the authoritative index is not touched until [merge_run]. *)
let stage_slice t ~data ~off ~cdata ~coff ~clen =
  match t.store with
  | Flat f ->
    (* no run to sort: the hash set dedups the candidate in place, and
       [merge_run] emits the fresh suffix *)
    if Tuple_set.add_slice f.set data off t.arity then f.staged_fresh <- f.staged_fresh + 1
    else f.staged_dups <- f.staged_dups + 1
  | Set _ -> (
    match t.cache with
    | Some cache when Exist_cache.find cache (permute t data off) <> None -> ()
    | _ -> Run_buffer.stage_slice t.run ~data ~off ~cdata ~coff ~clen)
  | Agg { kind; value_pos; _ } ->
    let absorbed =
      match t.cache with
      | Some cache -> (
        match Exist_cache.find cache (permute t data off) with
        | Some cached -> absorbed_by_cache kind cached data.(off + value_pos)
        | None -> false)
      | None -> false
    in
    if not absorbed then Run_buffer.stage_slice t.run ~data ~off ~cdata ~coff ~clen

let staged t =
  match t.store with
  | Flat f -> f.staged_fresh + f.staged_dups
  | Set _ | Agg _ -> Run_buffer.length t.run

(* Folds the staged run into the store in one sorted pass: sort by
   permuted key (stable on ties), self-dedup inside the run, then one
   co-sequential B⁺-tree walk ([Bptree.merge_sorted_slice] /
   [Agg_table.apply_sorted]) instead of one descent per tuple.  Calls
   [on_fresh] with the canonical delta tuple for every store change and
   returns [(merged, dup_dropped)]: candidates handed to the index walk
   after self-dedup / contributor absorption, and candidates dropped
   before reaching it.  A flat store has no run: staging already
   deduplicated into its set, so it emits the set's unemitted suffix
   and returns (fresh, duplicates). *)
let merge_run t ~on_fresh =
  let rb = t.run in
  let n = Run_buffer.length rb in
  match t.store with
  | Flat f ->
    emit_fresh t ~on_fresh;
    let counts = (f.staged_fresh, f.staged_dups) in
    f.staged_fresh <- 0;
    f.staged_dups <- 0;
    counts
  | Set _ | Agg _ when n = 0 -> (0, 0)
  | Set tree ->
    Run_buffer.sort rb;
    let pool = Run_buffer.data rb in
    (* the key covers every column, so equal keys are identical
       tuples: keep the first, like repeated add_if_absent would *)
    let ukeys = Array.make n [||] in
    let uoff = Array.make n 0 in
    let u = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || not (Run_buffer.equal_keys rb (i - 1) i) then begin
        ukeys.(!u) <- Run_buffer.key rb i;
        uoff.(!u) <- Run_buffer.off rb i;
        incr u
      end
    done;
    let m = !u in
    Bptree.merge_sorted_slice tree ~n:m
      ~key:(fun i -> ukeys.(i))
      ~merge:(fun i existing ->
        match existing with
        | Some _ -> None
        | None ->
          let tuple = Array.sub pool uoff.(i) t.arity in
          (match t.log with Some log -> ignore (Arena.push log tuple) | None -> ());
          on_fresh tuple 0;
          Some tuple);
    (* every probed key now has a known answer: bulk-refresh the
       cache from the walk instead of per-probe puts *)
    (match t.cache with
    | Some c -> Exist_cache.warm c ~n:m ~key:(fun i -> ukeys.(i)) ~value:(fun _ -> 1)
    | None -> ());
    Run_buffer.clear rb;
    (m, n - m)
  | Agg { table; value_pos; _ } ->
    Run_buffer.sort rb;
    let pool = Run_buffer.data rb in
    let akind = Agg_table.kind table in
    let groups = Array.make n [||] in
    let values = Array.make n 0 in
    let g = ref 0 in
    let i = ref 0 in
    while !i < n do
      let s = !i in
      let group = Run_buffer.key rb s in
      (* normalize the group's candidates in staging order (the sort
         is stable), so Sum's last-contribution-wins replacement
         matches the per-tuple path, then pre-combine survivors *)
      let acc = ref None in
      let j = ref s in
      let more = ref true in
      while !more do
        let o = Run_buffer.off rb !j in
        let v = pool.(o + value_pos) in
        let cl = Run_buffer.clen rb !j in
        let contributor =
          if cl = 0 then None else Some (Array.sub pool (Run_buffer.coff rb !j) cl)
        in
        (match Agg_table.normalize_candidate table ~group ?contributor v with
        | None -> ()
        | Some nv ->
          acc := Some (match !acc with None -> nv | Some a -> Agg_table.combine akind a nv));
        incr j;
        if !j >= n || not (Run_buffer.equal_keys rb (!j - 1) !j) then more := false
      done;
      (match !acc with
      | Some v ->
        groups.(!g) <- group;
        values.(!g) <- v;
        incr g
      | None -> ());
      i := !j
    done;
    let m = !g in
    Agg_table.apply_sorted table ~n:m
      ~group:(fun i -> groups.(i))
      ~value:(fun i -> values.(i))
      ~changed:(fun i v' ->
        (* cache refreshed only on change, like the per-tuple path:
           stale cached values stay sound monotone bounds *)
        (match t.cache with Some c -> Exist_cache.put c groups.(i) v' | None -> ());
        on_fresh (canonical_of_group t groups.(i) v' value_pos) 0);
    Run_buffer.clear rb;
    (m, n - m)

let iter_matches t ~key f =
  match t.store with
  | Flat _ -> invalid_arg "Rec_store.iter_matches: store was created unprobed"
  | Set tree -> Bptree.iter_prefix tree ~prefix:key (fun _ tuple -> f tuple 0)
  | Agg { table; value_pos; _ } ->
    Agg_table.iter_prefix table ~prefix:key (fun group v ->
        f (canonical_of_group t group v value_pos) 0)

let iter_slices t f =
  match t.store with
  | Flat { set; _ } -> Tuple_set.iter_slices set (fun data off _len -> f data off)
  | Set tree -> Bptree.iter tree (fun _ tuple -> f tuple 0)
  | Agg { table; value_pos; _ } ->
    Agg_table.iter table (fun group v -> f (canonical_of_group t group v value_pos) 0)

let length t =
  match t.store with
  | Flat { set; _ } -> Tuple_set.length set
  | Set tree -> Bptree.length tree
  | Agg { table; _ } -> Agg_table.length table

let cache_stats t =
  Option.map (fun c -> (Exist_cache.hits c, Exist_cache.misses c)) t.cache

(* --- checkpoint snapshot / rollback --- *)

type snapshot =
  | Snap_flat of int (* hash-set insertion watermark *)
  | Snap_set of int (* insertion-log watermark *)
  | Snap_agg of Agg_table.snapshot

let snapshot t =
  match t.store with
  | Flat { set; _ } -> Snap_flat (Tuple_set.watermark set)
  | Set _ -> (
    match t.log with
    | Some log -> Snap_set (Arena.length log)
    | None -> invalid_arg "Rec_store.snapshot: set store created without track_log")
  | Agg { table; _ } -> Snap_agg (Agg_table.snapshot table)

(* Restores the store to the snapshotted state, returning the number of
   tuples (set) / groups (aggregate) rolled back.  The existence cache
   is dropped wholesale: a cached entry can describe state newer than
   the restored store — for a monotone aggregate even a bound that no
   longer holds — and would silently absorb candidates that must
   re-derive.  Any candidates staged in the run buffer belong to the
   crashed round and are dropped too. *)
let rollback t snap =
  Run_buffer.clear t.run;
  (match t.cache with Some c -> Exist_cache.clear c | None -> ());
  match (t.store, snap) with
  | Flat f, Snap_flat wm ->
    let before = Tuple_set.length f.set in
    Tuple_set.truncate f.set wm;
    f.emitted <- wm;
    f.staged_fresh <- 0;
    f.staged_dups <- 0;
    before - Tuple_set.length f.set
  | Set _, Snap_set wm ->
    let log =
      match t.log with
      | Some l -> l
      | None -> invalid_arg "Rec_store.rollback: set store created without track_log"
    in
    let rolled = Arena.length log - wm in
    if rolled < 0 then invalid_arg "Rec_store.rollback: watermark ahead of log";
    Arena.truncate log ~count:wm;
    (* index rebuild from the surviving log prefix; [Bptree] copies keys
       defensively, so the permute scratch is safe to pass *)
    let tree = Bptree.create () in
    Arena.iter_slices log (fun data off ->
        let key = permute t data off in
        ignore (Bptree.add_if_absent_lazy tree key (fun () -> Array.sub data off t.arity)));
    t.store <- Set tree;
    rolled
  | Agg agg, Snap_agg sn ->
    let before = Agg_table.length agg.table in
    Agg_table.restore agg.table sn;
    max 0 (before - Agg_table.length agg.table)
  | Flat _, (Snap_set _ | Snap_agg _)
  | Set _, (Snap_flat _ | Snap_agg _)
  | Agg _, (Snap_flat _ | Snap_set _) ->
    invalid_arg "Rec_store.rollback: snapshot shape mismatch"
