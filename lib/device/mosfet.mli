(** MOSFET drain-current noise model (paper Section III-A).

    The two dominant bulk-CMOS noise sources are modelled as a current
    source i_ds between drain and source, characterised by its PSD:

    - thermal (white, non-autocorrelated):
      [S_th = (8/3) k T gm]                      (paper, after Brederlow);
    - flicker (1/f, autocorrelated):
      [S_fl(f) = alpha k T I_D^2 / (W L^2 f)]    (paper, after Hung–Ko–Hu).

    PSDs follow the paper's (two-sided) convention so they can be
    combined directly with S_phi = b_fl/f^3 + b_th/f^2. *)

type t = {
  gm : float;       (** Transconductance, A/V. *)
  i_d : float;      (** Nominal drain current, A. *)
  w : float;        (** Channel width, m. *)
  l : float;        (** Channel length, m. *)
  alpha : float;    (** Flicker constant of the technology, m^3/J-ish
                        units folded so that [flicker_psd] is A^2/Hz;
                        fitted per process. *)
  temp : float;     (** Operating temperature, K. *)
}

val create :
  gm:float -> i_d:float -> w:float -> l:float -> alpha:float -> ?temp:float -> unit -> t
(** @raise Invalid_argument on non-positive parameters. *)

val thermal_psd : t -> float
(** White drain-noise density [(8/3) k T gm], A^2/Hz. *)

val flicker_coefficient : t -> float
(** K_fl such that [S_fl(f) = K_fl / f]:
    [alpha k T I_D^2 / (W L^2)], A^2. *)

val flicker_psd : t -> float -> float
(** [flicker_psd m f] = [flicker_coefficient m /. f].
    @raise Invalid_argument if [f <= 0]. *)

val corner_frequency : t -> float
(** Frequency where flicker equals thermal noise. *)
