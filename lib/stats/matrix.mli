(** Small dense matrices for least-squares fitting.

    Row-major storage; sized for the handful-of-parameters regression
    problems in this library, not for large linear algebra. *)

type t
(** A dense matrix of floats. *)

val create : rows:int -> cols:int -> t
(** Zero matrix. @raise Invalid_argument on non-positive dimensions. *)

val of_rows : float array array -> t
(** Build from row arrays; all rows must have equal length. *)

val rows : t -> int
(** Number of rows. *)

val cols : t -> int
(** Number of columns. *)

val get : t -> int -> int -> float
(** [get m i j] is element (i, j), zero-based. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] writes element (i, j) in place. *)

val copy : t -> t
(** Independent copy of the storage. *)


val transpose : t -> t
(** Fresh transposed matrix. *)

val mul : t -> t -> t
(** Matrix product. @raise Invalid_argument on dimension mismatch. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product.
    @raise Invalid_argument on dimension mismatch. *)

val solve_lu : t -> float array -> float array
(** [solve_lu a b] solves the square system [a x = b] by LU
    decomposition with partial pivoting.
    @raise Failure on singular systems. *)

val least_squares : t -> float array -> float array
(** [least_squares a b] minimises ||a x - b||_2 via Householder QR;
    requires [rows a >= cols a] and full column rank.
    @raise Failure on rank deficiency. *)

val inverse : t -> t
(** Matrix inverse via LU; used for parameter covariance in fits. *)
