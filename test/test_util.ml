(* Stats, byte formatting, text tables, series binning, charts. *)
open Accent_util

(* --- Stats --- *)

let feed xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let close = Alcotest.(check (float 1e-9))

let test_stats_basic () =
  let s = feed [ 1.; 2.; 3.; 4. ] in
  close "mean" 2.5 (Stats.mean s);
  close "total" 10. (Stats.total s);
  Alcotest.(check int) "count" 4 (Stats.count s);
  close "min" 1. (Stats.min_value s);
  close "max" 4. (Stats.max_value s);
  close "variance" (5. /. 3.) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  close "mean of empty" 0. (Stats.mean s);
  close "variance of empty" 0. (Stats.variance s);
  close "percentile of empty" 0. (Stats.percentile s 50.)

let test_stats_percentile () =
  let s = feed [ 10.; 20.; 30.; 40.; 50. ] in
  close "p0" 10. (Stats.percentile s 0.);
  close "p50" 30. (Stats.percentile s 50.);
  close "p100" 50. (Stats.percentile s 100.);
  close "p25 interpolates" 20. (Stats.percentile s 25.)

let test_stats_merge () =
  let a = feed [ 1.; 2. ] and b = feed [ 3.; 4. ] in
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Stats.count m);
  close "merged mean" 2.5 (Stats.mean m)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min..max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = feed xs in
      Stats.mean s >= Stats.min_value s -. 1e-9
      && Stats.mean s <= Stats.max_value s +. 1e-9)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford variance matches two-pass"
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = feed xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (n -. 1.)
      in
      Float.abs (Stats.variance s -. var) < 1e-6 *. (1. +. var))

(* The two sample-store modes may never disagree on moments: the
   unboxed moment accumulator is independent of whether samples are
   retained or collapsed into the sketch, so equality here is exact —
   bit-for-bit, not within a tolerance. *)
let prop_moments_mode_independent =
  QCheck.Test.make ~name:"moments identical in exact and sketch modes"
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let exact = Stats.create () in
      let sketch = Stats.create ~exact_capacity:0 () in
      List.iter
        (fun x ->
          Stats.add exact x;
          Stats.add sketch x)
        xs;
      Stats.count exact = Stats.count sketch
      && Stats.mean exact = Stats.mean sketch
      && Stats.variance exact = Stats.variance sketch
      && Stats.min_value exact = Stats.min_value sketch
      && Stats.max_value exact = Stats.max_value sketch)

let percentile_points = [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ]

(* Below the retention capacity the accumulator IS the historical
   retain-everything implementation, so it must match the list oracle
   exactly at every probe point. *)
let prop_percentile_exact_below_capacity =
  QCheck.Test.make ~name:"percentile equals list oracle while exact"
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = feed xs in
      Stats.retained_exactly s
      && List.for_all
           (fun p -> Stats.percentile s p = Stats.percentile_of xs p)
           percentile_points)

(* Past the capacity the sketch answers within its documented relative
   error.  Positive data keeps the relative bound meaningful (the
   interpolation between adjacent order statistics preserves it only
   for same-signed samples). *)
let prop_percentile_sketch_within_alpha =
  QCheck.Test.make ~name:"sketch percentile within documented tolerance"
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 0.001 1e6))
    (fun xs ->
      let s = Stats.create ~exact_capacity:0 () in
      List.iter (Stats.add s) xs;
      (not (Stats.retained_exactly s))
      && List.for_all
           (fun p ->
             let oracle = Stats.percentile_of xs p in
             Float.abs (Stats.percentile s p -. oracle)
             <= (Stats.sketch_alpha *. Float.abs oracle) +. 1e-9)
           percentile_points)

(* --- Bytesize --- *)

let test_bytesize_format () =
  Alcotest.(check string) "bytes" "512 B" (Bytesize.to_string 512);
  Alcotest.(check string) "kb" "139.0 KB" (Bytesize.to_string 142336);
  Alcotest.(check string) "mb" "2.1 MB" (Bytesize.to_string 2203136);
  Alcotest.(check string) "gb" "3.94 GB" (Bytesize.to_string 4228129280)

let test_bytesize_commas () =
  Alcotest.(check string) "small" "42" (Bytesize.with_commas 42);
  Alcotest.(check string) "thousands" "142,336" (Bytesize.with_commas 142336);
  Alcotest.(check string) "billions" "4,228,129,280"
    (Bytesize.with_commas 4228129280);
  Alcotest.(check string) "negative" "-1,234" (Bytesize.with_commas (-1234))

let test_bytesize_units () =
  Alcotest.(check int) "kb" 1024 (Bytesize.of_kb 1);
  Alcotest.(check int) "mb" (1024 * 1024) (Bytesize.of_mb 1);
  Alcotest.(check int) "gb" (1024 * 1024 * 1024) (Bytesize.of_gb 1)

(* --- Text_table --- *)

let test_table_render () =
  let t =
    Text_table.create ~title:"T"
      [ ("name", Text_table.Left); ("value", Text_table.Right) ]
  in
  Text_table.add_row t [ "a"; "1" ];
  Text_table.add_row t [ "long-name"; "22" ];
  let out = Text_table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0 && out.[0] = 'T');
  (* every row is padded to the same overall width *)
  let lines = String.split_on_char '\n' out in
  let row_a = List.nth lines 3 and row_b = List.nth lines 4 in
  Alcotest.(check int) "rows same width" (String.length row_b)
    (String.length row_a)

let test_table_arity () =
  let t = Text_table.create [ ("a", Text_table.Left) ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Text_table.add_row: arity mismatch") (fun () ->
      Text_table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "float cell" "3.14" (Text_table.cell_f 3.14159);
  Alcotest.(check string) "pct cell" "56.9" (Text_table.cell_f ~dec:1 56.93);
  Alcotest.(check string) "bytes cell" "1,024" (Text_table.cell_bytes 1024)

(* --- Series --- *)

let test_series_basics () =
  let s = Series.create () in
  Alcotest.(check bool) "empty" true (Series.is_empty s);
  Series.add s ~time:0. ~value:10.;
  Series.add s ~time:1500. ~value:20.;
  Series.add s ~time:2500. ~value:5.;
  Alcotest.(check int) "length" 3 (Series.length s);
  close "total" 35. (Series.total s);
  close "duration" 2500. (Series.duration s)

let test_series_binning () =
  let s = Series.create () in
  Series.add s ~time:100. ~value:1.;
  Series.add s ~time:900. ~value:2.;
  Series.add s ~time:1100. ~value:4.;
  Series.add s ~time:3500. ~value:8.;
  let bins = Series.bin s ~width:1000. in
  Alcotest.(check int) "bin count spans to last sample" 4 (Array.length bins);
  close "bin0" 3. (snd bins.(0));
  close "bin1" 4. (snd bins.(1));
  close "bin2 (quiet) is zero" 0. (snd bins.(2));
  close "bin3" 8. (snd bins.(3))

let test_series_rate () =
  let s = Series.create () in
  Series.add s ~time:0. ~value:500.;
  Series.add s ~time:999. ~value:500.;
  let rates = Series.rate_bins s ~width:1000. in
  close "rate" 1. (snd rates.(0))

let prop_binning_preserves_mass =
  QCheck.Test.make ~name:"binning preserves total value"
    QCheck.(
      list_of_size
        Gen.(int_range 1 60)
        (pair (float_range 0. 10_000.) (float_range 0. 100.)))
    (fun samples ->
      let s = Series.create () in
      List.iter (fun (time, value) -> Series.add s ~time ~value) samples;
      let bins = Series.bin s ~width:500. in
      let binned = Array.fold_left (fun acc (_, v) -> acc +. v) 0. bins in
      Float.abs (binned -. Series.total s) < 1e-6)

(* --- Ascii_chart --- *)

let test_chart_hbars () =
  let out =
    Ascii_chart.hbar_groups ~title:"chart"
      [ ("g", [ ("a", 10.); ("b", 5.) ]) ]
  in
  Alcotest.(check bool) "mentions labels" true
    (String.length out > 0
    && Test_helpers.contains out "a"
    && Test_helpers.contains out "#")

and test_chart_negative () =
  let out =
    Ascii_chart.hbar_groups ~title:"c" [ ("g", [ ("a", -10.); ("b", 10.) ]) ]
  in
  Alcotest.(check bool) "draws negative bars" true
    (Test_helpers.contains out "<" && Test_helpers.contains out ">")

let test_chart_empty_timeline () =
  let out =
    Ascii_chart.stacked_timeline ~title:"t" ~y_label:"y" ~x_label:"x" [||] [||]
  in
  Alcotest.(check bool) "handles empty" true
    (Test_helpers.contains out "empty")

let test_chart_stacked () =
  let lower = [| (0., 5.); (1., 5.) |] and upper = [| (0., 2.); (1., 0.) |] in
  let out =
    Ascii_chart.stacked_timeline ~title:"s" ~y_label:"y" ~x_label:"x" lower
      upper
  in
  Alcotest.(check bool) "has both layers" true
    (Test_helpers.contains out "#" && Test_helpers.contains out "o")

let suite =
  ( "util",
    [
      Alcotest.test_case "stats basics" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "stats merge" `Quick test_stats_merge;
      QCheck_alcotest.to_alcotest prop_mean_bounded;
      QCheck_alcotest.to_alcotest prop_welford_matches_naive;
      QCheck_alcotest.to_alcotest prop_moments_mode_independent;
      QCheck_alcotest.to_alcotest prop_percentile_exact_below_capacity;
      QCheck_alcotest.to_alcotest prop_percentile_sketch_within_alpha;
      Alcotest.test_case "bytesize format" `Quick test_bytesize_format;
      Alcotest.test_case "bytesize commas" `Quick test_bytesize_commas;
      Alcotest.test_case "bytesize units" `Quick test_bytesize_units;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table arity" `Quick test_table_arity;
      Alcotest.test_case "table cells" `Quick test_table_cells;
      Alcotest.test_case "series basics" `Quick test_series_basics;
      Alcotest.test_case "series binning" `Quick test_series_binning;
      Alcotest.test_case "series rate" `Quick test_series_rate;
      QCheck_alcotest.to_alcotest prop_binning_preserves_mass;
      Alcotest.test_case "chart hbars" `Quick test_chart_hbars;
      Alcotest.test_case "chart negative" `Quick test_chart_negative;
      Alcotest.test_case "chart empty" `Quick test_chart_empty_timeline;
      Alcotest.test_case "chart stacked" `Quick test_chart_stacked;
    ] )
