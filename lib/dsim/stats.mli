(** Sample statistics matching the paper's methodology.

    The evaluation of ff_write() collects 1M latency samples, removes
    roughly 10% outliers with a standard IQR filter, and reports
    averages, standard deviations and box plots. This module implements
    exactly those reductions. *)

type t
(** A growable sample buffer of float observations. *)

val create : ?capacity:int -> unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool
val to_array : t -> float array
(** Copy of the samples in insertion order. *)

val mean : t -> float
val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than two
    samples. *)

val minimum : t -> float
val maximum : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], linear interpolation
    between closest ranks. @raise Invalid_argument on an empty buffer. *)

val percentiles : t -> float -> float
(** [percentiles t] sorts [t] once and returns the lookup
    [fun p -> percentile t p], so a report reading several percentiles
    of one buffer pays for one sort. On an empty buffer every
    percentile is [0.]. *)

val median : t -> float

type boxplot = {
  q1 : float;
  median : float;
  q3 : float;
  whisker_low : float;   (** smallest sample >= q1 - 1.5*IQR *)
  whisker_high : float;  (** largest sample <= q3 + 1.5*IQR *)
  mean : float;
  stddev : float;
  n : int;
  outliers : int;        (** samples outside the whiskers *)
}

val boxplot : t -> boxplot

val iqr_filter : ?k:float -> t -> t
(** Fresh buffer containing only samples within
    [\[q1 - k*IQR, q3 + k*IQR\]] ([k] defaults to 1.5, the "standard IQR
    strategy" of the paper). *)

val pp_boxplot : Format.formatter -> boxplot -> unit
