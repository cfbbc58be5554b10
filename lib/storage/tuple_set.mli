(** Deduplicating tuple store over flat storage.

    An open-addressing hash set with linear probing whose elements live
    length-prefixed in one growable flat [int array] — no per-tuple heap
    object.  This is the backing store of every relation: semi-naive
    evaluation is all about set difference ("is this tuple new?"), so
    [add] reports whether the tuple was absent, and the [_slice] entry
    points let the caller probe straight from another flat buffer
    (arena, packed frame) without materializing a boxed tuple.
    Deletion is deliberately unsupported — Datalog relations only grow
    during bottom-up evaluation. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a tuple-count hint for the probe table. *)

val length : t -> int

val add : t -> Tuple.t -> bool
(** [add s tup] inserts a copy of [tup]; [true] iff it was not already
    present.  The input is copied into the flat store, so callers may
    reuse scratch buffers. *)

val add_slice : t -> int array -> int -> int -> bool
(** [add_slice s data off len] inserts the tuple stored flat at
    [data.(off .. off+len-1)]; [true] iff fresh. *)

val mem : t -> Tuple.t -> bool

val mem_slice : t -> int array -> int -> int -> bool

val iter : (Tuple.t -> unit) -> t -> unit
(** Boxed iteration (insertion order) — API edges only; the hot paths
    use {!iter_slices}. *)

val iter_slices : t -> (int array -> int -> int -> unit) -> unit
(** [iter_slices s f] calls [f data off len] for each stored tuple in
    insertion order; the slice is valid only during the call. *)

val watermark : t -> int
(** The current end of the insertion order, as an opaque position.
    Later inserts land after it; {!iter_slices_from} and {!truncate}
    take one. *)

val iter_slices_from : t -> int -> (int array -> int -> int -> unit) -> unit
(** [iter_slices_from s mark f] is {!iter_slices} restricted to the
    tuples inserted since [mark] was taken. *)

val truncate : t -> int -> unit
(** [truncate s mark] rolls the set back to the watermark [mark]: every
    tuple inserted since is dropped and the probe table is rebuilt over
    the surviving prefix (capacity is kept).
    @raise Invalid_argument unless [mark] is a watermark of [s] no
    later than its current end. *)

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val to_vec : t -> Tuple.t Dcd_util.Vec.t

val clear : t -> unit

val load_factor : t -> float
(** Diagnostics: occupancy of the probe table. *)
