(** The full trial grid behind Figures 4-1 through 4-4: every representative
    × every strategy × the paper's prefetch values, each in its own fresh
    world.  Run once and share across the tables and figures
    ({!Paper_tables}).

    The grid holds {!Trial.summary} values: each trial's world is dropped
    as soon as its report is taken, so holding the whole sweep retains
    the reports alone, not 77 two-host worlds.  Use {!Trial.run} for a
    trial whose world or process must stay live. *)

type rep_results = {
  spec : Accent_workloads.Spec.t;
  copy : Trial.summary;
  iou : (int * Trial.summary) list;  (** keyed by prefetch value *)
  rs : (int * Trial.summary) list;
}

type t = rep_results list

val run :
  ?seed:int64 ->
  ?costs:Accent_kernel.Cost_model.t ->
  ?on_event:(Accent_core.Mig_event.t -> unit) ->
  ?specs:Accent_workloads.Spec.t list ->
  ?prefetches:int list ->
  ?progress:bool ->
  unit ->
  t
(** Defaults: the seven representatives, prefetch {0,1,3,7,15}, progress
    lines on stderr.  [on_event] subscribes to every trial world's
    migration event bus — each trial is a fresh world whose clock restarts
    near zero, so per-trial statistics should reset on [Requested]. *)

val find : t -> string -> rep_results
(** By representative name; raises [Not_found]. *)

val iou_at : rep_results -> int -> Trial.summary
val rs_at : rep_results -> int -> Trial.summary
