(** Top-level driver: regenerate every table and figure of the paper's
    evaluation section and print the headline claims next to the paper's
    numbers.  `accentctl evaluate` lands here. *)

val run_all :
  ?seed:int64 ->
  ?on_event:(Accent_core.Mig_event.t -> unit) ->
  ?progress:bool ->
  ?out:Format.formatter ->
  ?csv_dir:string ->
  unit ->
  unit
(** Print Tables 4-1..4-5 and Figures 4-1..4-5 plus the headline summary to
    [out] (default [Format.std_formatter]).  Runs the full 77-trial sweep.
    With [csv_dir], also write one CSV per artifact there (see
    {!write_csvs}): each table's {!Result_table.csv}, Figure 4-5's rate
    series and the hybrid comparison.  [on_event] observes every
    migration event of the sweep's trial worlds (see {!Sweep.run}); the
    printed tables are unaffected. *)

val write_csvs : dir:string -> (string * string) list -> unit
(** [write_csvs ~dir files] writes each [(name, contents)] to
    [dir/name.csv], creating [dir] if it does not exist.  A file's
    channel is closed even if its write raises. *)

val headline_summary : Claims.evidence -> string
(** The §4.5 headline, printed from {!Claims.all} beside the paper's
    values: the transfer-time ratio, byte and message-cost savings, the
    Minprog and Chess penalties, the hit ratios, the prefetch-one rule
    and the peak wire-rate cut.  A claim the evidence does not measure
    prints no line. *)
