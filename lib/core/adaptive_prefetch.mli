(** Adaptive prefetch control.

    §4.4.2 ends with a fixed rule — "one page should be prefetched
    regardless" — because the right amount differs per program: big
    prefetch doubles Pasmac's speed and poisons Lisp's.  §6 notes that
    "tasks with special knowledge of the data requirements they will
    encounter may apply that knowledge to optimize the physical shipment
    of data".  This controller derives that knowledge online: it samples a
    process's prefetch hit ratio periodically and walks the prefetch
    amount up while extra pages keep getting used, and back down when they
    stop — converging near the best static setting for each behaviour
    without being told which program it is watching.

    The controller's numbers are constants of this module: it samples
    every 500 ms, grows the prefetch amount at a hit ratio of 70% or
    more, shrinks it at 35% or less, and keeps it within 1..15, the range
    of the paper's prefetch measurements (§4.4.2).  No experiment varies
    them. *)

type t

val attach : Accent_sim.Engine.t -> Accent_kernel.Proc.t -> t
(** Start controlling the process's [prefetch] field; the controller
    stops itself when the process is no longer running. *)

val adjustments : t -> int
(** Times the prefetch amount was changed. *)

val trajectory : t -> (float * int) list
(** [(ms, prefetch)] after each sample, oldest first. *)
