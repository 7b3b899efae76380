(** Bounded-memory streaming statistics for the measurement layer: trial
    summaries, queue-server accounting, percentile reporting.

    [add] is allocation-flat: moments (count/total/mean/variance/min/max)
    live in an unboxed float array and are exact in every mode.  The
    sample store backing {!percentile} has two modes:

    - {e exact} — up to [exact_capacity] samples retained in a flat
      float array; percentiles interpolate over the sorted copy, exactly
      as the historical retain-everything implementation did.
    - {e sketch} — past the capacity, samples collapse into a
      DDSketch-style logarithmic histogram.  Memory becomes bounded by
      the dynamic range of the data (not the observation count) and
      {!percentile} answers within {!sketch_alpha} relative error per
      order statistic (interpolation between two adjacent order
      statistics preserves the bound for same-signed data).

    A sketch still grows with the data's range: a busy queue station's
    waits, spread over seven decades, held about 780 words of bins.
    Readers that want only moments (queue stations, churn's mean
    turnaround) use {!moments_only}: a fixed few words, no [log]. *)

type t
(** A mutable accumulator of floating-point observations. *)

val sketch_alpha : float
(** Relative accuracy of sketch-mode percentiles: 0.01. *)

val default_exact_capacity : int
(** Samples retained before spilling to the sketch: 4096.  Every printed
    table in the repo draws its percentiles from series below this, so
    their output is identical to the retain-everything behaviour. *)

val create : ?exact_capacity:int -> unit -> t
(** [exact_capacity] defaults to {!default_exact_capacity}; [0] means
    sketch-only from the first sample. *)

val moments_only : unit -> t
(** An accumulator that keeps only the moments.  Its count, total, mean,
    variance, min and max are bit-identical to any other mode's over the
    same samples; {!percentile} on it raises [Invalid_argument]. *)

val add : t -> float -> unit
(** Record one observation.  No boxed allocation on the steady state. *)

val add_at : t -> float array -> int -> unit
(** [add_at t cell i] records [cell.(i)].  A float passed to {!add} from
    another module is boxed at the call unless the compiler can see
    both sides; read out of a flat float array here, it never is.  For
    per-job paths that keep their times in such a cell. *)

val clear : t -> unit
(** Reset to the freshly-created state, dropping retained samples. *)

val count : t -> int
val total : t -> float

val mean : t -> float
(** Mean of the observations; 0 if empty.  Exact in both modes. *)

val variance : t -> float
(** Unbiased sample variance (Welford); 0 with fewer than two samples.
    Exact in both modes. *)

val min_value : t -> float
(** Smallest observation; [infinity] if empty.  Exact in both modes. *)

val max_value : t -> float
(** Largest observation; [neg_infinity] if empty.  Exact in both
    modes. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100], by linear interpolation over
    the sorted samples; 0 if empty.  Exact below [exact_capacity];
    within {!sketch_alpha} relative error (clamped to the exact
    min/max) beyond it.  Raises [Invalid_argument] on a {!moments_only}
    accumulator. *)

val retained_exactly : t -> bool
(** Whether every sample is still retained (percentiles are exact);
    never for a {!moments_only} accumulator. *)

val merge : t -> t -> t
(** Combined accumulator over both observation sets.  Moments are
    combined exactly; the sample store stays exact only when both
    inputs were exact and the union fits the larger capacity, and the
    result is {!moments_only} when either input is. *)

val pp : Format.formatter -> t -> unit
(** One-line [n/mean/stddev/min/max] rendering. *)

(** {2 Batch helpers} *)

val mean_of : float list -> float
(** Arithmetic mean; 0 if the list is empty. *)

val percentile_of : float list -> float -> float
(** [percentile_of xs p]: exact interpolated percentile of the list
    (regardless of length); 0 if the list is empty.  Never raises and
    never returns NaN for an empty series — report rows built from it
    stay printable when a policy triggers no migrations at all. *)
