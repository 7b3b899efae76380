(** Durable checkpoints: a process image with its pages swapped for
    digests.

    A checkpoint is exactly the first-class {!Accent_kernel.Proc_image}
    with every real page value replaced by its content digest; the values
    themselves are banked in a {!Accent_net.Content_store} — the same
    digest-keyed store the host's {!Accent_net.Backing_server}s and the
    NetMsgServer dedup cache share — which thereby doubles as the durable
    store.  Two checkpoints of similar processes share pages
    automatically, and a checkpoint taken {e after} a migration shipped
    pages to a host costs only the pages that host has not already seen.

    Restore resolves every digest back to a value and re-derives each
    value's digest against the recorded name, so a store that lost a page
    or holds a corrupted one fails loudly instead of reincarnating a
    corrupt process.

    The store is the checkpoint's lifeline: it must be sized (its
    [capacity_pages]) to hold every live checkpoint's pages, since LRU
    eviction of a checkpointed page makes that checkpoint unrestorable. *)

open Accent_mem
open Accent_kernel

type mem_run =
  | Ck_zero of { lo : int; hi : int }
  | Ck_real of {
      lo : int;
      digests : int array;
      homes : (int * Address_space.page_home) list;  (** run-length encoded *)
    }
  | Ck_imag of { lo : int; hi : int; segment_id : int; offset : int }

type t = {
  core : Context.core;  (** frozen: the PCB is a private copy *)
  mem : mem_run list;
  backings : (int * Accent_ipc.Port.id) list;
  ws : Working_set.snapshot;
  dirty : Page.index list;
  resident : Page.index list;
}

val proc_name : t -> string
val pages : t -> int
(** Real pages named by the checkpoint. *)

val digests : t -> int list
(** The digest set, in image order (with duplicates — shared content
    appears once per page naming it). *)

val save :
  ?bus:Mig_event.bus ->
  ?at:Accent_sim.Time.t ->
  Accent_net.Content_store.t ->
  Proc_image.t ->
  t
(** Freeze the image ({!Proc_image.freeze}) and bank every real page
    value in the store under its digest.  With [bus], publishes
    {!Mig_event.Checkpointed} stamped [at] (default zero) carrying the
    page count and the bytes not already present in the store. *)

val rebuild_image : Accent_net.Content_store.t -> t -> Proc_image.t
(** Resolve every digest back to a value with an integrity check.
    Raises [Failure] if the store lost a page or a value fails the
    check. *)

val restore :
  ?cost_model:Cost_model.t ->
  ?bus:Mig_event.bus ->
  Accent_net.Content_store.t ->
  Host.t ->
  t ->
  k:(Proc.t -> unit) ->
  unit
(** Rebuild the process on [host] from the checkpoint alone: resolve and
    verify pages, charge the InsertProcess cost model ([cost_model]
    defaults to the host's own — pass the source's to price restoration
    on dissimilar hardware), then reincarnate, adopt, publish
    {!Mig_event.Restored} (with [bus]) and hand the Ready process to
    [k]. *)

(** {2 File round trip}

    For [accentctl checkpoint]/[restore]: the checkpoint travels with its
    page values, so the file is restorable on a machine whose store never
    saw them. *)

val write_file : string -> Accent_net.Content_store.t -> t -> unit
val read_file : string -> Accent_net.Content_store.t -> t
(** Re-banks the file's pages into the store, then returns the
    checkpoint. *)
