(** The automatic migration daemon — the §6 "creation and evaluation of
    automatic migration strategies" made concrete.

    The daemon samples every host's load on a fixed period into a
    {!Placement_policy.snapshot} and executes whatever the configured
    {!Placement_policy.t} decides: [Observe] actions are published as
    {!Mig_event.Auto_threshold} events, [Move] directives are published
    as {!Mig_event.Auto_candidate} events and become real migrations
    (interrupt, wait for in-flight references to retire, excise and ship
    with the policy's strategy).  The decision logic
    itself lives entirely in {!Placement_policy}; this module owns the
    clock, the event publication and the migration mechanics. *)

type policy = {
  period_ms : float;  (** sampling period *)
  strategy : Strategy.t;  (** how to ship the victims *)
  max_migrations : int;  (** lifetime cap (safety against thrashing) *)
  placement : Placement_policy.t;
      (** decision function; {!default_policy} uses
          {!Placement_policy.threshold} with its default knobs *)
}

val default_policy : policy

type t

val start : ?live:(unit -> bool) -> World.t -> policy -> t
(** Begin sampling on the world's engine.  The daemon reschedules itself
    while the simulation runs and stops once the cap is reached or
    [live ()] turns false (default: some process anywhere is Running or
    Ready — an open-workload scenario with future arrivals should pass
    its own [live]). *)

val migrations_triggered : t -> int
