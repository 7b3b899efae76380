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
    saw them.

    The file is one versioned binary encoding that depends on neither
    the machine nor the OCaml version.  Every integer is 8 bytes
    little-endian; a float (a think time, a working-set time in ms) is
    its IEEE-754 bits; every list is its length followed by its
    elements; an enumeration is one byte.  In order:

    - the magic ["ACCENTCK"] and the format version (1);
    - the page table: each distinct page once, in ascending digest
      order — its digest, then [0] (Zero), [1] tag idx (Pattern) or
      [2] and the 512 bytes (Literal);
    - process id, name (length and bytes), the PCB (status byte, pc,
      zero/disk/imaginary fault counts, migrations), port rights;
    - the trace: its length, then the page column, the think-time column
      and one write byte (0 or 1) per step;
    - the mem runs, ascending: [0] lo hi (zero), [1] lo digests homes
      (real; homes as (pages, home byte) pairs) or [2] lo hi segment
      offset (imaginary);
    - the backings (segment, port), the working set ((page, time)
      pairs, then the reference count), the dirty and resident pages;
    - the MD5 digest of every byte before it.

    The file carries no AMap: {!read_file} rebuilds it from the mem
    runs, classifying each the way {!Address_space.build_amap} does. *)

val write_file :
  string -> Accent_net.Content_store.t -> t -> (unit, string) result
(** Writes the checkpoint with its pages, read from the store through
    {!Accent_net.Content_store.peek}: no hit, miss or LRU position
    moves.  Never raises: a page the store no longer holds gives
    [Error] naming its digest, with nothing written, and an unwritable
    path gives [Error] too. *)

val read_file :
  string -> Accent_net.Content_store.t -> (t, string) result
(** Decode a file, then bank its pages into the store through
    {!Accent_net.Content_store.insert_wire_run}, each digest re-derived
    from the page's content.  Never raises: an unreadable file, bad
    magic or version, a digest mismatch, truncation, an out-of-range
    field, a page that fails its digest or that the store cannot keep
    gives [Error] with a one-line reason.  Decoding is linear in the
    file's length.

    [Ok t] guarantees that, while the store is not changed,
    {!rebuild_image} succeeds on [t] and {!restore} rebuilds it: runs are
    ascending, disjoint and page-aligned, each real run's homes sum to
    its length and its digests are banked, every imaginary segment has
    a backing, every trace page lies in a run and [pc] is within the
    trace, times are finite and non-negative and the working set is
    ascending. *)
