(** Memory-access behaviour models for the representative programs.

    Three families cover the paper's observations (§4.3.3):

    - {b Sequential}: programs like the Pasmac macro processor that stream
      through mapped files, possibly several at once — strong spatial
      locality, the case where large prefetch shines (78% hit ratio);
    - {b Clustered_random}: Lisp's allocator-driven behaviour — touched
      pages come in short clusters but are visited with little temporal
      order, so prefetch hit ratios fall as prefetch grows (40% → 20%);
    - {b Hot_cold}: compute-bound programs like Chess that hammer a small
      hot set and only occasionally stray. *)

type t =
  | Sequential of {
      streams : int;  (** concurrent sequential streams interleaved *)
      revisit : float;  (** extra references per page, e.g. 0.2 *)
      run : int;
          (** touched pages come in contiguous runs of about this many
              pages (one mapped file's worth); prefetch past a run's end
              misses, which is what caps Pasmac's hit ratio at ~78% *)
    }
  | Clustered_random of {
      cluster : float;  (** mean touched-cluster length in pages *)
    }
  | Hot_cold of {
      hot_fraction : float;  (** of the touched set that is hot *)
      hot_prob : float;  (** probability a reference goes to the hot set *)
    }

val choose_touched_in :
  t ->
  rng:Accent_util.Rng.t ->
  universe_len:int ->
  page_of:(int -> Accent_mem.Page.index) ->
  count:int ->
  Accent_mem.Page.index array
(** Select which [count] pages of the universe (all real pages, in address
    order, presented as its length plus a position → page-index accessor so
    no O(pages) array is ever built) the program will touch, shaped by the
    pattern: spans for [Sequential], short clusters for [Clustered_random],
    a hot span plus scattered singles for [Hot_cold].  The result is in
    address order. *)

val choose_touched :
  t ->
  rng:Accent_util.Rng.t ->
  universe:Accent_mem.Page.index array ->
  count:int ->
  Accent_mem.Page.index array
(** {!choose_touched_in} over a materialised universe array (test
    convenience). *)

val generate :
  t ->
  rng:Accent_util.Rng.t ->
  touched:Accent_mem.Page.index array ->
  refs:int ->
  total_think_ms:float ->
  zero_fill:int * Accent_mem.Page.index array ->
  Accent_kernel.Trace.t
(** Produce a [refs]-step reference trace over the touched pages whose
    think times sum to ~[total_think_ms].  Every touched page is referenced
    at least once.  [zero_fill = (z, pages)] then shuffles [pages] and
    spreads its first [z] through the trace as extra steps, each after
    1 ms of compute: [pages] must hold at least [z]. *)
