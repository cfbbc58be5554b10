(** One worker's partition of one route-copy of a recursive relation.

    Recursive predicates are partitioned across workers by the hash of
    their route columns (paper §2.2); non-linear recursion additionally
    replicates a relation under several routes (§4.3), so the engine
    materializes one [Rec_store.t] per (predicate, route, worker).

    Internally a store is one of three kinds, fixed at {!create}:
    - a {e flat} set — one {!Dcd_storage.Tuple_set} of canonical tuples,
      for a set copy no rule probes: it only has to answer "seen
      before?" (§6.2.2), so it has no B⁺-tree, existence cache, sort
      run or insertion log;
    - a {e probed} set — a B⁺-tree on the route-permuted tuple, the
      paper's recursive-table index, fronted by the existence cache;
    - an aggregate relation backed by {!Dcd_storage.Agg_table}.
    All tuples are exchanged and returned in the predicate's canonical
    column order; the permutation needed to make the route columns a
    B⁺-tree prefix is internal.

    A store is owned by exactly one worker; no synchronization inside. *)

open Dcd_datalog

type opts = {
  agg_backend : Dcd_storage.Agg_table.backend;
      (** [Indexed] = paper-optimized merge; [Scan] = Table 4 "w/o" *)
  use_cache : bool; (** §6.2.2 existence-check cache *)
  track_log : bool;
      (** keep an append-only insertion log on probed set stores so the
          store can be checkpointed ({!snapshot} is then an O(1)
          watermark) and rolled back.  Off by default: crash recovery
          turns it on.  Flat stores need no log. *)
}

val default_opts : opts

val unoptimized_opts : opts

type t

val create :
  arity:int ->
  agg:(int * Ast.agg_kind) option ->
  route:int array ->
  probed:bool ->
  opts:opts ->
  unit ->
  t
(** [probed] says whether some rule looks the copy up by its route
    columns ({!iter_matches}).  A set copy that is not probed gets the
    flat kind, which ignores [opts]; a probed one gets the B⁺-tree.
    Aggregate copies always use {!Dcd_storage.Agg_table}. *)

val merge : t -> tuple:Dcd_storage.Tuple.t -> contributor:Dcd_storage.Tuple.t -> Dcd_storage.Tuple.t option
(** Folds one candidate (canonical order) into the store.  For
    aggregate stores [contributor] carries the count/sum contributor
    key ([[||]] otherwise).  Returns (a copy of) the canonical delta
    tuple when the store changed — for aggregates this carries the
    {e updated} aggregate value, which may differ from the candidate's.
    Both inputs are read transiently (anything retained is copied), so
    they may be scratch buffers. *)

val merge_slice :
  t ->
  data:int array ->
  off:int ->
  cdata:int array ->
  coff:int ->
  clen:int ->
  on_fresh:(int array -> int -> unit) ->
  unit
(** {!merge} reading the candidate straight out of flat storage: the
    tuple is [data.(off .. off+arity-1)], the contributor
    [cdata.(coff .. coff+clen-1)] ([clen = 0] for none).  When the
    store changed, [on_fresh d o] receives the canonical delta tuple as
    the slice [d.(o .. o+arity-1)], valid only during the call (an
    aggregate store passes a fresh tuple of exactly [arity] ints at
    [o = 0], which the callee may keep).  This is how packed exchange
    frames are folded in without materializing boxed tuples. *)

val stage_slice :
  t ->
  data:int array ->
  off:int ->
  cdata:int array ->
  coff:int ->
  clen:int ->
  unit
(** The batch-sorted alternative to {!merge_slice}: stages the candidate
    into the store's scratch run instead of merging it immediately.  The
    existence cache is still probed here (a hit drops the candidate
    without staging), but the authoritative index is untouched until
    {!merge_run}.  Inputs are copied into the run pool.  A flat store
    has no run: it deduplicates the candidate in its hash set right
    here, and {!merge_run} only emits the fresh ones. *)

val staged : t -> int
(** Candidates currently staged and not yet folded by {!merge_run}. *)

val merge_run : t -> on_fresh:(int array -> int -> unit) -> int * int
(** Folds the staged run into the store in one sorted pass: sorts the
    run by permuted key, self-dedups it, and walks the index
    co-sequentially — one descent per leaf segment instead of one per
    tuple ({!Dcd_btree.Bptree.merge_sorted_slice}).  [on_fresh] fires
    with the canonical delta tuple for every store change, in key order,
    as a slice like {!merge_slice}'s.  Returns [(merged, dup_dropped)]:
    candidates handed to the index walk after self-dedup/contributor
    absorption, and candidates dropped before reaching it.  A flat store
    emits its fresh tuples in staging order and returns
    [(fresh, duplicates)]: the candidates that entered the hash set and
    those it already held.  Equivalent to {!merge_slice} per staged
    candidate in staging order: final store state identical, and the
    deltas match the per-tuple path's last delta per group — except a
    Sum run whose contributions net to zero against an existing group,
    where the per-tuple path emits a cancelling delta pair and the
    batch path (soundly) emits nothing. *)

val iter_matches : t -> key:int array -> (int array -> int -> unit) -> unit
(** All current tuples whose route columns equal [key], canonical
    order, passed as [(data, off)] cursors valid only during the call.
    This is the recursive-relation side of an index join.
    @raise Invalid_argument on a store created with [~probed:false]. *)

val iter_slices : t -> (int array -> int -> unit) -> unit
(** Full scan in unspecified order, each tuple passed as a [(data, off)]
    cursor valid only during the call (used to collect final results). *)

val length : t -> int

val cache_stats : t -> (int * int) option
(** (hits, misses) of the existence cache, if enabled. *)

(** {1 Checkpoint snapshot / rollback} *)

type snapshot
(** The store's contribution to a checkpoint epoch.  For a flat store
    this is the hash set's insertion watermark, and for a probed set
    store an O(1) watermark into its append-only insertion log (so
    cutting an epoch costs nothing proportional to the relation); for an
    aggregate store it is a deep value snapshot including the
    contributor-dedup state ({!Dcd_storage.Agg_table.snapshot}). *)

val snapshot : t -> snapshot
(** @raise Invalid_argument on a probed set store created without
    [track_log]. *)

val rollback : t -> snapshot -> int
(** Restores the store to exactly the snapshotted state: flat stores
    truncate the hash set's buffer to the watermark and rebuild its
    probe table; probed set stores truncate the log to the watermark and
    rebuild the B⁺-tree from the surviving prefix; aggregate stores
    restore groups {e and}
    contributor state.  The existence cache is dropped (a cached value
    can be newer than the restored store and would wrongly absorb
    re-derived candidates) and any staged run candidates are discarded.
    Returns the number of tuples/groups rolled back.  The snapshot
    survives the call — a second-level retry may roll back again. *)
