(* Experiment harness: trials, the sweep, table/figure generation and the
   cross-checks their claims functions implement — run on small synthetic
   specs so the whole suite stays fast. *)
open Accent_core
open Accent_experiments

let specs = [ Test_helpers.small_spec; Test_helpers.random_spec ]

let small_sweep =
  (* computed once; the suite reads it many times *)
  lazy (Sweep.run ~specs ~prefetches:[ 0; 2 ] ~progress:false ())

let test_sweep_shape () =
  let sweep = Lazy.force small_sweep in
  Alcotest.(check int) "one entry per spec" 2 (List.length sweep);
  let rep = Sweep.find sweep "Tiny" in
  Alcotest.(check int) "iou cells" 2 (List.length rep.Sweep.iou);
  Alcotest.(check int) "rs cells" 2 (List.length rep.Sweep.rs);
  (* all trials completed *)
  List.iter
    (fun (_, (r : Trial.summary)) ->
      Alcotest.(check bool) "completed" true
        (r.Trial.report.Report.completed_at <> None))
    (rep.Sweep.iou @ rep.Sweep.rs)

(* Words the major heap keeps live once [x] is built, against before:
   deterministic on one domain, since a full major collection leaves
   exactly the reachable heap. *)
let retained_words build =
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let x = build () in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity x);
  after - before

(* A finished sweep holds reports, not worlds: all ten trials of the
   small sweep together retain less than one live trial of the same
   spec, world and process included. *)
let test_sweep_retains_no_world () =
  let run_sweep () =
    Sweep.run ~specs ~prefetches:[ 0; 2 ] ~progress:false ()
  in
  let run_trial () =
    Trial.run ~spec:Test_helpers.small_spec ~strategy:(Strategy.pure_iou ()) ()
  in
  (* warm module-level caches so neither measurement pays for them *)
  ignore (Sys.opaque_identity (run_sweep ()));
  ignore (Sys.opaque_identity (run_trial ()));
  let sweep_words = retained_words run_sweep in
  let world_words = retained_words run_trial in
  Alcotest.(check bool)
    (Printf.sprintf "sweep (%d words) < one world (%d words)" sweep_words
       world_words)
    true
    (sweep_words < world_words)

let test_table_4_1_rows () =
  let rows = Table_4_1.rows ~specs () in
  Alcotest.(check int) "row per spec" 2 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check string) "name" "Tiny" row.Table_4_1.name;
  Alcotest.(check int) "real" (64 * 512) row.Table_4_1.real;
  Alcotest.(check int) "total" (160 * 512) row.Table_4_1.total;
  Alcotest.(check (float 0.1)) "pct" 60.0 row.Table_4_1.pct_realz;
  let rendered = Table_4_1.render rows in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "Tiny")

let test_table_4_2_rows () =
  let rows = Table_4_2.rows ~specs () in
  let row = List.hd rows in
  Alcotest.(check int) "rs" (24 * 512) row.Table_4_2.rs_size;
  Alcotest.(check (float 0.1)) "pct of real" 37.5 row.Table_4_2.pct_of_real

let test_table_4_3_rows () =
  let rows = Table_4_3.rows (Lazy.force small_sweep) in
  let row = List.hd rows in
  (* touched 20 of 64 real pages = 31.25% *)
  Alcotest.(check (float 0.5)) "iou pct of real" 31.25
    row.Table_4_3.iou_pct_real;
  (* RS: 24 resident + (20 - 10) faulted = 34 pages = 53.1% *)
  Alcotest.(check (float 0.5)) "rs pct of real" 53.125 row.Table_4_3.rs_pct_real

let test_table_4_4_rows () =
  let rows = Table_4_4.rows (Lazy.force small_sweep) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive timings" true
        (r.Table_4_4.amap_s > 0. && r.Table_4_4.rimas_s > 0.
        && r.Table_4_4.overall_s > r.Table_4_4.amap_s
        && r.Table_4_4.insert_s > 0.))
    rows

let test_table_4_5_ordering () =
  let rows = Table_4_5.rows (Lazy.force small_sweep) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "iou < rs < copy" true
        (r.Table_4_5.iou_s < r.Table_4_5.rs_s
        && r.Table_4_5.rs_s < r.Table_4_5.copy_s))
    rows;
  Alcotest.(check bool) "ratio computed" true
    (Table_4_5.max_copy_over_iou rows > 1.)

let test_figure_4_1 () =
  let sweep = Lazy.force small_sweep in
  let rep = Sweep.find sweep "Tiny" in
  Alcotest.(check bool) "iou slower than copy at destination" true
    (Figure_4_1.iou_penalty rep > 1.);
  let rendered = Figure_4_1.render sweep in
  Alcotest.(check bool) "renders penalties" true
    (Test_helpers.contains rendered "penalty")

let test_figure_4_2_speedup_math () =
  let sweep = Lazy.force small_sweep in
  let rep = Sweep.find sweep "Tiny" in
  let iou0 = Sweep.iou_at rep 0 in
  let s = Figure_4_2.speedup_pct ~baseline:rep.Sweep.copy iou0 in
  (* tiny workload, tiny execution: IOU must win overall *)
  Alcotest.(check bool) "iou speedup positive" true (s > 0.);
  Alcotest.(check (float 1e-9)) "self speedup zero" 0.
    (Figure_4_2.speedup_pct ~baseline:rep.Sweep.copy rep.Sweep.copy)

let test_figure_4_3_savings () =
  let sweep = Lazy.force small_sweep in
  let savings = Figure_4_3.mean_iou_savings_pct sweep in
  Alcotest.(check bool) "IOU saves bytes" true (savings > 0.)

let test_figure_4_4_savings () =
  let sweep = Lazy.force small_sweep in
  let savings = Figure_4_4.mean_iou_savings_pct sweep in
  Alcotest.(check bool) "IOU saves message time" true (savings > 0.)

let test_figure_4_5_panels () =
  let panels = Figure_4_5.panels ~spec:Test_helpers.small_spec () in
  Alcotest.(check int) "three panels" 3 (List.length panels);
  let iou = List.hd panels and copy = List.nth panels 2 in
  Alcotest.(check bool) "iou has fault traffic" true
    (Array.length iou.Figure_4_5.fault > 0);
  Alcotest.(check bool) "copy peak rate higher" true
    (Figure_4_5.peak_rate copy > Figure_4_5.peak_rate iou);
  let rendered = Figure_4_5.render panels in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "B/s")

let test_headline_summary_renders () =
  let s = Evaluation.headline_summary (Lazy.force small_sweep) in
  Alcotest.(check bool) "has ratio line" true
    (Test_helpers.contains s "copy/IOU")

let test_paper_reference_data () =
  Alcotest.(check int) "table 4-4 rows" 7 (List.length Paper.table_4_4);
  Alcotest.(check int) "table 4-5 rows" 7 (List.length Paper.table_4_5);
  Alcotest.(check (float 1e-9)) "byte savings" 58.2 Paper.byte_savings_pct

let test_grid_cells () =
  let sweep = Lazy.force small_sweep in
  let rep = Sweep.find sweep "Tiny" in
  let cells = Grid.cells rep ~metric:(fun _ -> 1.) in
  (* 2 iou + 2 rs + copy *)
  Alcotest.(check int) "cell count" 5 (List.length cells);
  Alcotest.(check string) "copy labelled last" "copy"
    (fst (List.nth cells 4))

let suite =
  ( "experiments",
    [
      Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "sweep retains no world" `Quick
        test_sweep_retains_no_world;
      Alcotest.test_case "table 4-1" `Quick test_table_4_1_rows;
      Alcotest.test_case "table 4-2" `Quick test_table_4_2_rows;
      Alcotest.test_case "table 4-3" `Quick test_table_4_3_rows;
      Alcotest.test_case "table 4-4" `Quick test_table_4_4_rows;
      Alcotest.test_case "table 4-5 ordering" `Quick test_table_4_5_ordering;
      Alcotest.test_case "figure 4-1" `Quick test_figure_4_1;
      Alcotest.test_case "figure 4-2 math" `Quick test_figure_4_2_speedup_math;
      Alcotest.test_case "figure 4-3 savings" `Quick test_figure_4_3_savings;
      Alcotest.test_case "figure 4-4 savings" `Quick test_figure_4_4_savings;
      Alcotest.test_case "figure 4-5 panels" `Quick test_figure_4_5_panels;
      Alcotest.test_case "headline summary" `Quick test_headline_summary_renders;
      Alcotest.test_case "paper reference data" `Quick test_paper_reference_data;
      Alcotest.test_case "grid cells" `Quick test_grid_cells;
    ] )

(* --- CSV export --- *)

let test_csv_quoting () =
  Alcotest.(check string) "plain" "a,b" (Csv_export.csv_line [ "a"; "b" ]);
  Alcotest.(check string) "comma quoted" "\"a,b\",c"
    (Csv_export.csv_line [ "a,b"; "c" ]);
  Alcotest.(check string) "quote doubled" "\"a\"\"b\""
    (Csv_export.csv_line [ "a\"b" ])

let test_csv_tables_shape () =
  let sweep = Lazy.force small_sweep in
  let csv = Csv_export.table_4_5 (Table_4_5.rows sweep) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* header + one row per spec *)
  Alcotest.(check int) "line count" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (Test_helpers.contains (List.hd lines) "copy_s")

let test_csv_grid_long_format () =
  let sweep = Lazy.force small_sweep in
  let csv = Csv_export.figure_grid sweep ~metric:Figure_4_1.remote_seconds in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* 2 specs x (2 iou + 2 rs + 1 copy) + header *)
  Alcotest.(check int) "rows" 11 (List.length lines)

let test_csv_write_all () =
  let dir = Filename.temp_file "accent_csv" "" in
  Sys.remove dir;
  let sweep = Lazy.force small_sweep in
  let panels = Figure_4_5.panels ~spec:Test_helpers.small_spec () in
  Csv_export.write_all ~dir sweep panels;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exists") true
        (Sys.file_exists (Filename.concat dir name)))
    [
      "table_4_1.csv"; "table_4_2.csv"; "table_4_3.csv"; "table_4_4.csv";
      "table_4_5.csv"; "figure_4_1.csv"; "figure_4_3.csv"; "figure_4_4.csv";
      "figure_4_5.csv";
    ]

let csv_cases =
  [
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv table shape" `Quick test_csv_tables_shape;
    Alcotest.test_case "csv grid long format" `Quick test_csv_grid_long_format;
    Alcotest.test_case "csv write_all" `Quick test_csv_write_all;
  ]

let suite = (fst suite, snd suite @ csv_cases)

(* --- replication harness --- *)

let test_replication_metrics () =
  let metrics =
    Replication.run ~seeds:[ 1L; 2L ] ~specs ~progress:false ()
  in
  Alcotest.(check int) "three metrics on the reduced spec set" 3
    (List.length metrics);
  List.iter
    (fun m ->
      Alcotest.(check bool) "mean within [min,max]" true
        (m.Replication.min_v <= m.Replication.mean
        && m.Replication.mean <= m.Replication.max_v))
    metrics;
  let rendered = Replication.render metrics in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "sd")

let replication_cases =
  [ Alcotest.test_case "replication metrics" `Quick test_replication_metrics ]

let suite = (fst suite, snd suite @ replication_cases)
