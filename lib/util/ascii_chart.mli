(** Minimal ASCII charting, enough to render the paper's figures in a
    terminal: horizontal bar groups (Figures 4-1 .. 4-4) and vertical
    rate timelines (Figure 4-5). *)

val hbar_groups :
  ?width:int ->
  ?unit_label:string ->
  title:string ->
  (string * (string * float) list) list ->
  string
(** [hbar_groups ~title groups] renders one horizontal bar per (label,
    value), grouped under group headings, all on a shared scale of at most
    [width] (default 50) characters.  Negative values draw to the left of a
    zero axis so slowdown bars (Figure 4-2) are visible. *)

val stacked_timeline :
  ?width:int ->
  title:string ->
  y_label:string ->
  x_label:string ->
  (float * float) array ->
  (float * float) array ->
  string
(** [stacked_timeline ... lower upper]: two-layer, 12-row column chart for
    Figure 4-5: [lower] drawn with '#' and
    [upper] stacked above it with 'o' (the paper's black/white split of bulk
    vs fault traffic).  The two arrays must describe identical bin starts;
    missing trailing bins in either are treated as zero. *)
