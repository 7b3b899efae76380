(** A single-server FIFO queueing station.

    Models every serially-shared processing resource in the testbed: the
    NetMsgServer CPU on each host, the backing process fielding imaginary
    read requests, the paging disk, and the network link transmitter.  Jobs
    queue in arrival order; one job is in service at a time; completion
    callbacks fire through the engine so queueing delay under load emerges
    naturally.

    Accounting is two counters and one distribution: jobs completed,
    busy time, and the per-job queueing delay (arrival to service
    start) in a moments-only [Stats] accumulator, whose size does not
    grow with the jobs served or the spread of their waits.  A job's
    total time in the system is its delay plus its service time, so it
    is not recorded separately. *)

type t

val create : Engine.t -> name:string -> t

val name : t -> string

val submit : t -> service_time:Time.t -> (unit -> unit) -> unit
(** [submit t ~service_time k] enqueues a job needing [service_time] of the
    server, calling [k] when it completes. *)

val busy : t -> bool
val queue_length : t -> int
(** Jobs waiting, excluding the one in service. *)

(** {2 Accounting} *)

val jobs_completed : t -> int

val busy_time : t -> Time.t
(** Total time the server has spent in service so far. *)

val wait_stats : t -> Accent_util.Stats.t
(** Per-job queueing delays (arrival to service start): count, total,
    mean, variance, min and max; {!Accent_util.Stats.percentile} on it
    raises [Invalid_argument]. *)

val reset_accounting : t -> unit
(** Zero the counters and stats; queued work is unaffected. *)
