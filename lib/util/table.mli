(** Plain-text rendering of tables and bar charts.

    The benchmark harness prints each of the paper's figures as a labelled
    bar chart (one row per application, one bar per series) and each table
    in aligned columns, so the regenerated results can be compared against
    the paper by eye in a terminal. *)

(** [render ~header rows] lays out [rows] under [header] with columns
    padded to the widest cell, the first left-aligned and the rest
    right-aligned. *)
val render : header:string list -> string list list -> string

(** A named series of (label, value) measurements for a bar chart. *)
type series = { series_name : string; points : (string * float) list }

(** [bar_chart ~title ~unit series] renders grouped horizontal bars, one
    group per label, scaled to the maximum value across all series; the
    longest bar is 48 characters. *)
val bar_chart : title:string -> unit_label:string -> series list -> string

(** [xy_chart ~title ~x_label ~y_label series] renders series of numeric
    (x, y) points as aligned columns — the textual analogue of the paper's
    line plots (Figures 5 and 6). *)
val xy_chart :
  title:string ->
  x_label:string ->
  y_label:string ->
  (string * (float * float) list) list ->
  string
