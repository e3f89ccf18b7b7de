(** Digital filtering: direct FIR convolution and mean removal. *)

val fir_direct : h:float array -> float array -> float array
(** Causal FIR filtering: [y.(n) = sum_k h.(k) * x.(n-k)], output the
    same length as the input (zero initial conditions). *)

val remove_mean : float array -> float array
(** Subtract the sample mean. *)
