(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    experiment is exactly reproducible from a seed.  The generator is
    splitmix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, full 64-bit
    period sections, and cheap stream derivation, which we use to give every
    simulated component an independent stream derived from the experiment
    seed plus a label. *)

type t
(** A mutable generator. Generators are cheap; derive one per component. *)

val create : int64 -> t
(** [create seed] makes a generator whose output is a pure function of
    [seed]. *)

val of_label : t -> string -> t
(** [of_label t label] derives an independent generator from [t]'s seed and
    [label].  Deriving with the same label twice yields identical streams;
    the parent generator is not consumed. *)

val split : t -> t
(** [split t] consumes one draw from [t] and returns a fresh independent
    generator seeded by it. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean.  [mean] must be positive. *)

val exponential_at : t -> float array -> int -> unit
(** [exponential_at t cell i] replaces [cell.(i)], a mean, by an
    {!exponential} draw with that mean.  No float crosses the call, so
    none is boxed: the way to fill a float array with draws. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) sequence; [p] must be in (0,1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)
