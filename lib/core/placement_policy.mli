(** Pluggable placement policies — §6's "automatic migration strategies"
    as first-class values.

    A policy is a {e pure} function from a load {!snapshot} to a list of
    {!action}s; it owns no clock, publishes no events and touches no
    world, which is what makes the family testable on synthetic
    snapshots and comparable like-for-like under the cluster scenario.
    {!Auto_migrator} samples a world into a snapshot on a period and
    executes whatever the policy decides.

    The load-aware policies act only when the load spread between two
    hosts exceeds 1.5 runnable processes.  That threshold is a constant
    of this module, inherited from the original balancer; no experiment
    varies it. *)

type candidate = {
  proc_id : int;
  proc_name : string;
  host : int;  (** where the process currently runs *)
  affinity : int -> float;
      (** fraction of the process's placed bytes living on a given host
          ({!Load_metric.affinity}); evaluated lazily because computing
          it walks the process's segment map *)
}
(** A movable process as the policy sees it. *)

type snapshot = {
  loads : float array;  (** {!Load_metric.host_load} per host, by id *)
  movable : int -> candidate list;
      (** movable processes on a host, stable (proc-id) order *)
  rng : Accent_util.Rng.t;
      (** deterministic stream for randomised policies; part of the
          snapshot so a policy stays a function of its input *)
}

type directive = {
  victim : candidate;
  src : int;
  dst : int;
}

type action =
  | Observe of { src : int; spread : float }
      (** an imbalance was noticed (drives {!Mig_event.Auto_threshold}) *)
  | Move of directive  (** relocate [victim] from [src] to [dst] *)

type t

val name : t -> string
val decide : t -> snapshot -> action list

val threshold : ?affinity_weight:float -> unit -> t
(** The original {!Auto_migrator} balancer, preserved decision-for-
    decision: at most one move per tick, busiest host's first movable
    process, destination minimising [load - weight × affinity]
    ([affinity_weight] defaults to 2; 0 gives pure load levelling). *)

val destination_swap : unit -> t
(** Pairwise destination-swap (Avin/Dunay/Schmid): rank hosts by load,
    pair busiest with idlest, move one process per crossing pair — and
    swap back a process whose data lives on the sender, keeping the pair
    level while improving locality.  Up to [n/2] moves per tick. *)

val random : unit -> t
(** One uniformly random move per tick — the information-free floor. *)

val static : unit -> t
(** Never migrates; the unmanaged baseline as a policy. *)

val by_name : string -> t option
(** ["threshold"], ["destination-swap"]/["swap"], ["random"],
    ["static"]/["none"]. *)
