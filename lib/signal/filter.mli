(** Digital filtering: direct FIR convolution, IIR recursion, biquad
    sections, and simple detrending. *)

val fir_direct : h:float array -> float array -> float array
(** Causal FIR filtering: [y.(n) = sum_k h.(k) * x.(n-k)], output the
    same length as the input (zero initial conditions). *)

val iir : b:float array -> a:float array -> float array -> float array
(** Direct-form IIR: [a.(0)*y.(n) = sum b.(k) x.(n-k) - sum_{k>=1} a.(k) y.(n-k)].
    @raise Invalid_argument if [a] is empty or [a.(0) = 0]. *)

type biquad = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }
(** One second-order section (a0 normalised to 1). *)

val biquad_lowpass : fc:float -> fs:float -> q:float -> biquad
(** RBJ cookbook low-pass section. *)

val biquad_apply : biquad -> float array -> float array
(** Run the section over the signal (zero initial conditions). *)

val remove_mean : float array -> float array
(** Subtract the sample mean. *)

val detrend_linear : float array -> float array
(** Subtract the least-squares line through the samples. *)
