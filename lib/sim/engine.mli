(** The discrete-event simulation engine.

    A single engine instance drives one experiment: components schedule
    closures at future virtual times, and [run] executes them in time order
    while advancing the clock.  Everything in the testbed (network links,
    fault handling, process execution, servers) is expressed as chains of
    scheduled events. *)

type t

val create : ?seed:int64 -> unit -> t
(** Fresh engine with the clock at zero.  [seed] (default 1) roots the
    engine's random-stream tree; see {!rng}. *)

val now : t -> Time.t
(** Current virtual time.  The clock is the event queue's own cell
    ({!Event_queue.clock}): popping an event moves it, so a step copies no
    time. *)

val clock : t -> float array
(** That cell itself, for hot paths: reading it boxes no float where
    {!now} across modules does.  Read it, never write it. *)

val rng : t -> string -> Accent_util.Rng.t
(** [rng t label] is the deterministic random stream for the component named
    [label].  The same label always yields the same stream for a given
    engine seed. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> Event_queue.handle
(** [schedule t ~delay f] runs [f] at [now t + delay].  Negative delays are
    clamped to zero.  It allocates nothing: the handle is an immediate
    and the delay is handed to the queue as given, so nothing is boxed. *)

val post : t -> delay:Time.t -> (unit -> unit) -> unit
(** {!schedule} for events that will never be cancelled: the handle is
    dropped. *)

val post_at : t -> float array -> int -> (unit -> unit) -> unit
(** [post_at t cell i f] is [post t ~delay:cell.(i) f] with the delay
    read inside the queue: a delay computed in another module and
    handed to {!post} is boxed at the call under separate compilation,
    one kept in a flat float array is not. *)

val cancel : t -> Event_queue.handle -> unit

val run : ?limit:Time.t -> t -> Time.t
(** Execute events until the queue drains or the next live event lies
    past [limit] (default: no limit); in the second case the clock
    moves to [limit].  Returns the final clock value.  A step allocates
    nothing with or without a limit: the limit test is
    {!Event_queue.due}, which returns no float. *)

val run_until : t -> Time.t -> Time.t
(** [run_until t time] executes events up to and including [time], then
    advances the clock to exactly [time] (even if idle) and returns it. *)

val pending : t -> int
(** Number of live scheduled events. *)

val events_executed : t -> int
(** Total events fired so far (for tests and sanity limits). *)
