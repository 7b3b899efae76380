(* Experiment harness: trials, the sweep, table/figure generation and the
   cross-checks their claims functions implement — run on small synthetic
   specs so the whole suite stays fast. *)
open Accent_core
open Accent_experiments

let specs = [ Test_helpers.small_spec; Test_helpers.random_spec ]

let small_sweep =
  (* computed once; the suite reads it many times *)
  lazy (Sweep.run ~specs ~prefetches:[ 0; 2 ] ~progress:false ())

let small_panels = lazy (Figure_4_5.panels ~spec:Test_helpers.small_spec ())

let small_evidence =
  lazy (Claims.evidence (Lazy.force small_sweep) (Lazy.force small_panels))

(* One claim's measure on the small sweep. *)
let measure name = (Claims.find name).Claims.measure (Lazy.force small_evidence)

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

let cell t row column = (Result_table.find t ~row ~column).Result_table.measured

(* Every row of [t], by its first key. *)
let processes (t : Result_table.t) =
  List.map (fun (r : Result_table.row) -> List.hd r.Result_table.keys)
    (Result_table.rows t)

let test_table_4_1_rows () =
  let t = Paper_tables.table_4_1 ~specs () in
  Alcotest.(check (list string)) "row per spec" [ "Tiny"; "TinyRandom" ]
    (processes t);
  Alcotest.(check (float 0.)) "real" (float_of_int (64 * 512))
    (cell t [ "Tiny" ] "real_bytes");
  Alcotest.(check (float 0.)) "total" (float_of_int (160 * 512))
    (cell t [ "Tiny" ] "total_bytes");
  Alcotest.(check (float 0.1)) "pct" 60.0 (cell t [ "Tiny" ] "pct_realz");
  let rendered = Result_table.text t in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "Tiny")

let test_table_4_2_rows () =
  let t = Paper_tables.table_4_2 ~specs () in
  Alcotest.(check (float 0.)) "rs" (float_of_int (24 * 512))
    (cell t [ "Tiny" ] "rs_bytes");
  Alcotest.(check (float 0.1)) "pct of real" 37.5
    (cell t [ "Tiny" ] "pct_of_real")

let test_table_4_3_rows () =
  let t = Paper_tables.table_4_3 (Lazy.force small_sweep) in
  (* touched 20 of 64 real pages = 31.25% *)
  Alcotest.(check (float 0.5)) "iou pct of real" 31.25
    (cell t [ "Tiny" ] "iou_pct_real");
  (* RS: 24 resident + (20 - 10) faulted = 34 pages = 53.1% *)
  Alcotest.(check (float 0.5)) "rs pct of real" 53.125
    (cell t [ "Tiny" ] "rs_pct_real")

let test_table_4_4_rows () =
  let t = Paper_tables.table_4_4 (Lazy.force small_sweep) in
  List.iter
    (fun p ->
      let v = cell t [ p ] in
      Alcotest.(check bool) "positive timings" true
        (v "amap_s" > 0. && v "rimas_s" > 0.
        && v "overall_s" > v "amap_s"
        && v "insert_s" > 0.))
    (processes t);
  (* the paper never measured Tiny: its cells carry no paper value, and
     neither form prints one *)
  Alcotest.(check (option (float 0.))) "no paper value" None
    (Result_table.find t ~row:[ "Tiny" ] ~column:"amap_s").Result_table.paper;
  Alcotest.(check bool) "no nan in text" false
    (Test_helpers.contains (Result_table.text t) "nan");
  Alcotest.(check bool) "empty paper cells in CSV" true
    (Test_helpers.contains (Result_table.csv t) ",,,\n")

let test_table_4_5_ordering () =
  let sweep = Lazy.force small_sweep in
  let t = Paper_tables.table_4_5 sweep in
  List.iter
    (fun p ->
      let v = cell t [ p ] in
      Alcotest.(check bool) "iou < rs < copy" true
        (v "iou_s" < v "rs_s" && v "rs_s" < v "copy_s"))
    (processes t);
  Alcotest.(check bool) "ratio computed" true
    (Option.get (measure "max copy/IOU transfer-time ratio (x)") > 1.)

let test_figure_4_1 () =
  let sweep = Lazy.force small_sweep in
  let t = Paper_tables.figure_4_1 sweep in
  Alcotest.(check bool) "iou slower than copy at destination" true
    (cell t [ "Tiny"; "iou"; "0" ] "value"
    > cell t [ "Tiny"; "copy"; "0" ] "value");
  let rendered = Paper_tables.penalties sweep in
  Alcotest.(check bool) "renders penalties" true
    (Test_helpers.contains rendered "penalty")

let test_figure_4_2_speedup_math () =
  let sweep = Lazy.force small_sweep in
  let rep = Sweep.find sweep "Tiny" in
  let iou0 = Sweep.iou_at rep 0 in
  let s = Paper_tables.speedup_pct ~baseline:rep.Sweep.copy iou0 in
  (* tiny workload, tiny execution: IOU must win overall *)
  Alcotest.(check bool) "iou speedup positive" true (s > 0.);
  Alcotest.(check (float 1e-9)) "self speedup zero" 0.
    (Paper_tables.speedup_pct ~baseline:rep.Sweep.copy rep.Sweep.copy)

let test_figure_4_3_savings () =
  let savings = Option.get (measure "mean IOU byte savings (%)") in
  Alcotest.(check bool) "IOU saves bytes" true (savings > 0.)

let test_figure_4_4_savings () =
  let savings = Option.get (measure "mean IOU message-cost savings (%)") in
  Alcotest.(check bool) "IOU saves message time" true (savings > 0.)

let test_figure_4_5_panels () =
  let panels = Lazy.force small_panels in
  Alcotest.(check int) "three panels" 3 (List.length panels);
  let iou = List.hd panels and copy = List.nth panels 2 in
  Alcotest.(check bool) "iou has fault traffic" true
    (Array.length iou.Figure_4_5.fault > 0);
  Alcotest.(check bool) "copy peak rate higher" true
    (Figure_4_5.peak_rate copy > Figure_4_5.peak_rate iou);
  let rendered = Figure_4_5.render panels in
  Alcotest.(check bool) "renders" true (Test_helpers.contains rendered "B/s")

let test_headline_summary_renders () =
  let s = Evaluation.headline_summary (Lazy.force small_evidence) in
  Alcotest.(check bool) "has ratio line" true
    (Test_helpers.contains s "copy/IOU");
  Alcotest.(check bool) "has the peak wire-rate line" true
    (Test_helpers.contains s "peak wire rate");
  (* the small sweep holds neither Minprog nor Chess *)
  Alcotest.(check bool) "no Minprog line" false
    (Test_helpers.contains s "Minprog")

let test_paper_reference_data () =
  Alcotest.(check int) "table 4-4 rows" 7 (List.length Paper.table_4_4);
  Alcotest.(check int) "table 4-5 rows" 7 (List.length Paper.table_4_5);
  Alcotest.(check (float 1e-9)) "byte savings" 58.2
    (Claims.find "mean IOU byte savings (%)").Claims.paper

(* A figure's long-form rows for one process: every iou and rs prefetch
   cell, then copy. *)
let test_grid_cells () =
  let t = Paper_tables.figure_4_1 (Lazy.force small_sweep) in
  let tiny =
    List.filter
      (fun (r : Result_table.row) -> List.hd r.Result_table.keys = "Tiny")
      (Result_table.rows t)
  in
  (* 2 iou + 2 rs + copy *)
  Alcotest.(check int) "cell count" 5 (List.length tiny);
  Alcotest.(check (list string)) "copy last" [ "Tiny"; "copy"; "0" ]
    (List.nth tiny 4).Result_table.keys;
  Alcotest.(check bool) "grid labels the copy column" true
    (Test_helpers.contains (Paper_tables.grid t) "copy")

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
  Alcotest.(check string) "plain" "a,b" (Result_table.csv_line [ "a"; "b" ]);
  Alcotest.(check string) "comma quoted" "\"a,b\",c"
    (Result_table.csv_line [ "a,b"; "c" ]);
  Alcotest.(check string) "quote doubled" "\"a\"\"b\""
    (Result_table.csv_line [ "a\"b" ])

let test_csv_tables_shape () =
  let sweep = Lazy.force small_sweep in
  let csv = Result_table.csv (Paper_tables.table_4_5 sweep) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* header + one row per spec *)
  Alcotest.(check int) "line count" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (Test_helpers.contains (List.hd lines) "copy_s")

let test_csv_grid_long_format () =
  let sweep = Lazy.force small_sweep in
  let csv = Result_table.csv (Paper_tables.figure_4_1 sweep) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (* 2 specs x (2 iou + 2 rs + 1 copy) + header *)
  Alcotest.(check int) "rows" 11 (List.length lines)

let test_csv_write_all () =
  let dir = Filename.temp_file "accent_csv" "" in
  Sys.remove dir;
  let sweep = Lazy.force small_sweep in
  let panels = Lazy.force small_panels in
  let files =
    [
      ("table_4_5", Result_table.csv (Paper_tables.table_4_5 sweep));
      ("figure_4_1", Result_table.csv (Paper_tables.figure_4_1 sweep));
      ("figure_4_5", Figure_4_5.to_csv panels);
    ]
  in
  Evaluation.write_csvs ~dir files;
  List.iter
    (fun (name, contents) ->
      let path = Filename.concat dir (name ^ ".csv") in
      Alcotest.(check bool) (name ^ " exists") true (Sys.file_exists path);
      Alcotest.(check string) (name ^ " contents") contents
        (In_channel.with_open_bin path In_channel.input_all))
    files

let csv_cases =
  [
    Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv table shape" `Quick test_csv_tables_shape;
    Alcotest.test_case "csv grid long format" `Quick test_csv_grid_long_format;
    Alcotest.test_case "csv write_all" `Quick test_csv_write_all;
  ]

let suite = (fst suite, snd suite @ csv_cases)

(* --- Result_table rendering --- *)

let sample =
  let open Result_table in
  {
    title = "Sample";
    key_headers = [ ("", "process") ];
    columns =
      [
        { header = "Size"; csv = "bytes"; format = Bytes; in_paper = false };
        { header = "Time"; csv = "s"; format = Fixed 2; in_paper = true };
        { header = "[%]"; csv = "pct"; format = Bracketed 3; in_paper = false };
      ];
    lines =
      [
        row [ "a" ]
          [
            measured 1234567.;
            Number { measured = 1.5; paper = Some 2. };
            measured 0.25;
          ];
        (* a paper column whose row has no paper value *)
        row [ "b" ] [ measured 0.; measured 3.; measured 99. ];
      ];
  }

let test_result_table_text () =
  Alcotest.(check string) "text"
    "Sample\n\
     \   Size       Time         [%]     \n\
     -  ---------  -----------  --------\n\
     a  1,234,567  1.50 (2.00)   [0.250]\n\
     b          0         3.00  [99.000]\n"
    (Result_table.text sample)

let test_result_table_csv () =
  Alcotest.(check string) "csv"
    "process,bytes,s,pct,paper_s\n\
     a,1234567,1.500000,0.250000,2.000000\n\
     b,0,3.000000,99.000000,\n"
    (Result_table.csv sample)

let test_result_table_find () =
  Alcotest.(check (float 0.)) "measured" 3. (cell sample [ "b" ] "s");
  Alcotest.(check (option (float 0.))) "paper" (Some 2.)
    (Result_table.find sample ~row:[ "a" ] ~column:"s").Result_table.paper;
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Result_table.find sample ~row:[ "a" ] ~column:"Time"));
  Alcotest.check_raises "unknown row" Not_found (fun () ->
      ignore (Result_table.find sample ~row:[ "c" ] ~column:"s"))

(* Every row pads to one width, a rule row included, and the title
   comes first. *)
let test_result_table_render () =
  let open Result_table in
  let t =
    table "T" ~keys:[ ("name", "name") ]
      [ column "value" "value" (Fixed 0); column "note" "note" (Text Left) ]
      [
        row [ "a" ] [ measured 1.; Label "x" ];
        Rule;
        row [ "long-name" ] [ measured 22.; Label "" ];
      ]
  in
  let lines = String.split_on_char '\n' (text t) in
  Alcotest.(check string) "title first" "T" (List.hd lines);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "line %d as wide as the header" i)
        (String.length (List.nth lines 1))
        (String.length (List.nth lines i)))
    [ 2; 3; 4; 5 ];
  Alcotest.(check string) "label padded on the right" "a              1  x   "
    (List.nth lines 3);
  Alcotest.(check string) "csv skips the rule"
    "name,value,note\na,1.000000,x\nlong-name,22.000000,\n" (csv t)

(* A row with a key or a cell too many fails in every reader, naming the
   table. *)
let test_result_table_arity () =
  let open Result_table in
  let bad_keys = table "T" ~keys:[ ("a", "a") ] [] [ row [ "x"; "y" ] [] ] in
  let bad_cells =
    table "U"
      [ column "v" "v" (Fixed 0) ]
      [ row [] [ measured 1.; measured 2. ] ]
  in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let keys_msg =
    "Result_table \"T\": a row of 2 keys and 0 cells under 1 and 0 headers"
  in
  raises "text" keys_msg (fun () -> text bad_keys);
  raises "csv" keys_msg (fun () -> csv bad_keys);
  raises "find" keys_msg (fun () -> find bad_keys ~row:[ "x" ] ~column:"a");
  raises "cells"
    "Result_table \"U\": a row of 0 keys and 2 cells under 0 and 1 headers"
    (fun () -> text bad_cells)

let test_result_table_cells () =
  let open Result_table in
  Alcotest.(check string) "fixed, fixed, bytes" "3.14  56.9  1,024"
    (List.nth
       (String.split_on_char '\n'
          (text
             (table "T"
                [
                  column "f" "f" (Fixed 2);
                  column "p" "p" (Fixed 1);
                  column "b" "b" Bytes;
                ]
                [ row [] (List.map measured [ 3.14159; 56.93; 1024. ]) ])))
       3)

let result_table_cases =
  [
    Alcotest.test_case "result table text" `Quick test_result_table_text;
    Alcotest.test_case "result table csv" `Quick test_result_table_csv;
    Alcotest.test_case "result table find" `Quick test_result_table_find;
    Alcotest.test_case "result table render" `Quick test_result_table_render;
    Alcotest.test_case "result table arity" `Quick test_result_table_arity;
    Alcotest.test_case "result table cells" `Quick test_result_table_cells;
  ]

let suite = (fst suite, snd suite @ result_table_cases)

(* --- the claim list --- *)

let claim_names = List.map (fun c -> c.Claims.name)
let band = Alcotest.(pair (float 1e-9) (float 1e-9))

let test_claims_band_rule () =
  (* a bare figure: 58.2% fewer bytes, ±10% *)
  let bytes = Claims.find "mean IOU byte savings (%)" in
  Alcotest.check band "bare" (52.38, 64.02) bytes.Claims.band;
  Alcotest.(check bool) "bare lower edge holds" true (Claims.holds bytes 52.38);
  Alcotest.(check bool) "below the band misses" false (Claims.holds bytes 52.);
  (* a hedged figure: "up to 1,000 times", ±25% *)
  Alcotest.check band "hedged" (750., 1250.)
    (Claims.find "max copy/IOU transfer-time ratio (x)").Claims.band;
  (* a predicate holds only at 1 *)
  let pf1 = Claims.find "prefetch=1 faster in every IOU trial" in
  Alcotest.check band "predicate" (1., 1.) pf1.Claims.band;
  Alcotest.(check bool) "true holds" true (Claims.holds pf1 1.);
  Alcotest.(check bool) "false misses" false (Claims.holds pf1 0.);
  (* no claim has a tolerance of its own *)
  List.iter
    (fun (c : Claims.t) ->
      let p = c.Claims.paper in
      Alcotest.(check bool)
        (c.Claims.name ^ ": band from the rule")
        true
        (List.exists
           (fun b -> c.Claims.band = b)
           [ (p *. 0.9, p *. 1.1); (p *. 0.75, p *. 1.25); (1., 1.) ]))
    Claims.all

let empty_evidence = Claims.evidence [] []

let test_claims_unexplained () =
  let stray =
    {
      Claims.name = "stray";
      paper = 1.;
      band = (0.9, 1.1);
      measure = (fun _ -> Some 2.);
      deviation = None;
    }
  in
  let unexplained c = claim_names (Claims.unexplained [ c ] empty_evidence) in
  Alcotest.(check (list string)) "a miss without a note fails" [ "stray" ]
    (unexplained stray);
  Alcotest.(check (list string)) "a noted miss passes" []
    (unexplained { stray with Claims.deviation = Some "cause" });
  Alcotest.(check (list string)) "a hold passes" []
    (unexplained { stray with Claims.measure = (fun _ -> Some 1.) });
  Alcotest.(check (list string)) "an unmeasured claim passes" []
    (unexplained { stray with Claims.measure = (fun _ -> None) });
  (* evidence with nothing in it measures nothing, and raises nothing *)
  Alcotest.(check (list string)) "empty evidence measures nothing" []
    (claim_names
       (List.filter
          (fun c -> c.Claims.measure empty_evidence <> None)
          Claims.all))

let test_replication_metrics () =
  let rows = Claims.replicate ~seeds:[ 1L; 2L ] ~specs ~progress:false () in
  Alcotest.(check (list string)) "one row per claim" (claim_names Claims.all)
    (claim_names (List.map fst rows));
  let values name = List.assoc (Claims.find name) rows in
  Alcotest.(check int) "one value per seed" 2
    (List.length (values "mean IOU byte savings (%)"));
  Alcotest.(check bool) "the ratio is measured at both seeds" true
    (List.for_all Option.is_some
       (values "max copy/IOU transfer-time ratio (x)"));
  (* the small specs hold neither Minprog nor Chess, nor Lisp-Del for the
     panels *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " unmeasured") true
        (List.for_all Option.is_none (values name)))
    [
      "Minprog IOU execution penalty (x)";
      "Chess IOU execution penalty (%)";
      "peak wire-rate cut, IOU vs copy (%)";
    ];
  let rendered = Claims.render_replication rows in
  let line name =
    List.find
      (fun l -> Test_helpers.contains l name)
      (String.split_on_char '\n' rendered)
  in
  Alcotest.(check bool) "counts the seeds" true
    (Test_helpers.contains (line "byte savings") "of 2");
  Alcotest.(check bool) "an unmeasured claim renders -" true
    (Test_helpers.contains (line "Minprog") " -");
  Alcotest.(check string) "render pinned" "07514888ed27b104d889d5470aeff111"
    (Digest.to_hex (Digest.string rendered))

(* The whole list at the paper's seed: every miss carries a note naming
   its cause, and every note sits on a claim that misses. *)
let test_claims_at_seed_42 () =
  let evidence =
    Claims.evidence
      (Sweep.run ~seed:42L ~progress:false ())
      (Figure_4_5.panels ~seed:42L ())
  in
  let misses_without_note = Claims.unexplained Claims.all evidence in
  Alcotest.(check (list string)) "every miss has a note" []
    (claim_names misses_without_note);
  let measured c = Option.get (c.Claims.measure evidence) in
  Alcotest.(check (list string)) "every note is on a miss" []
    (claim_names
       (List.filter
          (fun c -> c.Claims.deviation <> None && Claims.holds c (measured c))
          Claims.all))

(* EXPERIMENTS.md's "Known deviations" (its last section) names every
   claim that carries a note, with the note's text, and no claim that
   carries none. *)
let test_claims_documented () =
  (* under dune runtest the suite runs in _build/default/test; under dune
     exec, at the project root *)
  let path =
    List.find Sys.file_exists [ "../EXPERIMENTS.md"; "EXPERIMENTS.md" ]
  in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let heading = "## Known deviations" in
  let rec start i =
    if String.sub doc i (String.length heading) = heading then i
    else start (i + 1)
  in
  let words s =
    String.concat " "
      (List.filter (( <> ) "")
         (String.split_on_char ' '
            (String.map (function '\n' -> ' ' | c -> c) s)))
  in
  let i = start 0 in
  let section = words (String.sub doc i (String.length doc - i)) in
  List.iter
    (fun (c : Claims.t) ->
      let named = Test_helpers.contains section ("**" ^ c.Claims.name ^ "**") in
      match c.Claims.deviation with
      | Some note ->
          Alcotest.(check bool) (c.Claims.name ^ " listed") true named;
          Alcotest.(check bool)
            (c.Claims.name ^ " with its note")
            true
            (Test_helpers.contains section (words note))
      | None ->
          Alcotest.(check bool) (c.Claims.name ^ " not listed") false named)
    Claims.all

let claims_cases =
  [
    Alcotest.test_case "claims documented" `Quick test_claims_documented;
    Alcotest.test_case "claims band rule" `Quick test_claims_band_rule;
    Alcotest.test_case "claims unexplained miss" `Quick test_claims_unexplained;
    Alcotest.test_case "replication metrics" `Quick test_replication_metrics;
    Alcotest.test_case "claims at seed 42" `Slow test_claims_at_seed_42;
  ]

let suite = (fst suite, snd suite @ claims_cases)

(* --- the evaluate CSVs, pinned byte for byte --- *)

(* Every CSV of the paper's evaluation at seed 42, by MD5.  Any change to
   how the tables are built or rendered must leave these unchanged. *)
let test_evaluate_csvs_pinned () =
  let dir = Filename.temp_file "accent_eval_csv" "" in
  Sys.remove dir;
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Evaluation.run_all ~seed:42L ~progress:false ~out:null ~csv_dir:dir ();
  List.iter
    (fun (name, md5) ->
      Alcotest.(check string) name md5
        (Digest.to_hex (Digest.file (Filename.concat dir (name ^ ".csv")))))
    [
      ("table_4_1", "5a434539a71878a012a43887a2d9adce");
      ("table_4_2", "9ffb4554e6a7f0ad43ace6213ab250a9");
      ("table_4_3", "f22b993f139baa127958461113c1960c");
      ("table_4_4", "28f83ff8e97306a57b623d69bb1190ad");
      ("table_4_5", "8aba29dd6272b23cfdb796a8dd8e173c");
      ("figure_4_1", "8b85c1e424ce3034e4df340b87ac33ab");
      ("figure_4_2", "cf1c2b2ac2e2b7b9f8408d0903302ce4");
      ("figure_4_3", "3d5da2414bb37c691596357082b6e151");
      ("figure_4_4", "4f4f419fd4820be1e8f17faae9c058f1");
      ("figure_4_5", "227bf138407cf1d8fafaad730df227e0");
      ("hybrid_compare", "dc6b5a60391181d3d02e6905db8e26ed");
    ]

(* [evaluate]'s whole text at seed 42, by MD5: the digest bench_suite's
   oracle holds as md5_evaluate, so a change to any table's layout fails
   here as well as there. *)
let test_evaluate_text_pinned () =
  let buf = Buffer.create 65_536 in
  let ppf = Format.formatter_of_buffer buf in
  Evaluation.run_all ~seed:42L ~progress:false ~out:ppf ();
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "evaluate" "d990b53f6d87624d8fdffdef6eb438be"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "evaluate CSVs at seed 42" `Slow
          test_evaluate_csvs_pinned;
        Alcotest.test_case "evaluate text at seed 42" `Slow
          test_evaluate_text_pinned;
      ] )
