(** Fixed-capacity sliding window of float samples.

    The streaming primitives of the health observatory: a ring buffer
    with O(1) push and O(capacity) mean/variance queries (capacities
    are tens to hundreds — recomputing beats maintaining numerically
    fragile running sums over evictions). *)

type t
(** One sliding window. *)

val create : capacity:int -> t
(** Empty window holding at most [capacity] samples.
    @raise Invalid_argument if [capacity < 2]. *)

val push : t -> float -> unit
(** Append one sample, evicting the oldest when full.  Non-finite
    values are dropped. *)

val push_from : t -> floatarray -> int -> unit
(** [push_from t src i] is [push t src.(i)], with no float crossing the
    call: the allocation-free spelling for a caller whose sample sits in
    a floatarray. *)

val count : t -> int
(** Samples currently held (grows to [capacity], then stays). *)

val total : t -> int
(** Samples pushed over the window's lifetime (evicted ones
    included). *)

val last : t -> float
(** Most recent sample; [nan] while empty. *)

val mean : t -> float
(** Mean of the held samples; [nan] while empty. *)

val variance : t -> float
(** Unbiased sample variance of the held samples; [nan] with fewer
    than 2 samples. *)

val to_array : t -> float array
(** Held samples, oldest first. *)

