(** The benchmark's statistics: order statistics over timing samples,
    the tail rule, and an order-independent fingerprint of a relation. *)

val median : float list -> float
(** Middle sample, or the mean of the two middle ones.
    @raise Invalid_argument on an empty list. *)

val mid_mean : float list -> float
(** The interquartile mean: the mean of the middle half of the sorted
    samples (all of them when there are fewer than four).  Unlike the
    median it moves smoothly when samples fall into two clusters.
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] with the interpolation of Python's
    [statistics.quantiles(xs, n=4)] (the default, exclusive method), so
    spreads computed here and by Python scripts agree.  A single
    sample is its own three quartiles.
    @raise Invalid_argument on an empty list. *)

val tail : float list -> (float * float) option
(** [Some (p, v)]: the highest percentile [p] of the ladder 99.99, 99.9,
    99, 95, 90, 75, 50 that has at least 10 samples beyond it, and its
    nearest-rank value [v].  [None] when there are fewer than 20
    samples, so no percentile qualifies. *)

(** Order-independent fingerprint of a set of tuples: the cardinality
    plus the wrapping sum of a mixed hash of each tuple. *)
type fingerprint = { count : int; sum : int }

val empty : fingerprint

val add : fingerprint -> int array -> fingerprint

val hash_pair : int -> int -> int
(** What [add] adds to [sum] for the tuple [[| a; b |]]. *)

val union : fingerprint -> fingerprint -> fingerprint
(** The fingerprint of the union of two disjoint sets. *)

val to_string : fingerprint -> string
