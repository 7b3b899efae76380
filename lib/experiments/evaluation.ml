let headline_summary evidence =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* a claim's line, skipped when the evidence does not measure it *)
  let claim name f =
    let c = Claims.find name in
    Option.iter (f c.Claims.paper) (c.Claims.measure evidence)
  in
  (* a line for two claims, skipped unless both measure *)
  let pair a b f =
    claim a (fun paper_a va ->
        claim b (fun paper_b vb -> f paper_a va paper_b vb))
  in
  line "Headline claims (paper value in parentheses):";
  claim "max copy/IOU transfer-time ratio (x)" (fun paper v ->
      line "  max copy/IOU transfer-time ratio: %.0fx (up to ~%.0fx)" v paper);
  claim "mean IOU byte savings (%)" (fun paper v ->
      line "  mean IOU byte savings over copy: %.1f%% (%.1f%%)" v paper);
  claim "mean IOU message-cost savings (%)" (fun paper v ->
      line "  mean IOU message-cost savings:   %.1f%% (%.1f%%)" v paper);
  claim "Minprog IOU execution penalty (x)" (fun paper v ->
      line "  Minprog IOU execution penalty:   %.0fx slower (%.0fx)" v paper);
  claim "Chess IOU execution penalty (%)" (fun paper v ->
      line "  Chess IOU execution penalty:     +%.1f%% (~%.0f%%)" v paper);
  pair "PM-Start prefetch hit ratio, least"
    "PM-Start prefetch hit ratio, greatest" (fun paper least _ greatest ->
      line "  Pasmac prefetch hit ratio:       %.0f%%..%.0f%% (~%.0f%% flat)"
        (100. *. least) (100. *. greatest) (100. *. paper));
  pair "Lisp-Del prefetch hit ratio at pf1" "Lisp-Del prefetch hit ratio at pf15"
    (fun paper_low low_pf paper_high high_pf ->
      line
        "  Lisp prefetch hit ratio pf1->pf15: %.0f%% -> %.0f%% (%.0f%% -> \
         %.0f%%)"
        (100. *. low_pf) (100. *. high_pf) (100. *. paper_low)
        (100. *. paper_high));
  claim "prefetch=1 faster in every IOU trial" (fun _ v ->
      line "  prefetch=1 never hurts end-to-end: %b (paper: always helps)"
        (v = 1.));
  claim "prefetch=1 lowers total IOU message time" (fun _ v ->
      line "  prefetch=1 reduces message costs:  %b (paper: slight drop)"
        (v = 1.));
  claim "peak wire-rate cut, IOU vs copy (%)" (fun paper v ->
      line "  peak wire rate, IOU vs copy:     -%.0f%% (paper: reduced up to \
            %.0f%%)" v paper);
  Buffer.contents buf

let write_csvs ~dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, contents) ->
      Out_channel.with_open_text (Filename.concat dir (name ^ ".csv"))
        (fun oc -> output_string oc contents))
    files

let run_all ?seed ?on_event ?(progress = true) ?(out = Format.std_formatter)
    ?csv_dir () =
  (* flush after every chunk so output interleaves correctly with the
     sweep's direct-to-channel progress ticker *)
  let out_string s =
    Format.pp_print_string out s;
    Format.pp_print_flush out ()
  in
  let out_newline () = out_string "\n" in
  let outf fmt = Printf.ksprintf out_string fmt in
  let show text = out_string (text ^ "\n") in
  let t41 = Paper_tables.table_4_1 ?seed () in
  show (Result_table.text t41);
  let t42 = Paper_tables.table_4_2 ?seed () in
  show (Result_table.text t42);
  let sweep = Sweep.run ?seed ?on_event ~progress () in
  let t43 = Paper_tables.table_4_3 sweep in
  let t44 = Paper_tables.table_4_4 sweep in
  let t45 = Paper_tables.table_4_5 sweep in
  List.iter (fun t -> show (Result_table.text t)) [ t43; t44; t45 ];
  let f41 = Paper_tables.figure_4_1 sweep in
  let f42 = Paper_tables.figure_4_2 sweep in
  let f43 = Paper_tables.figure_4_3 sweep in
  let f44 = Paper_tables.figure_4_4 sweep in
  let grid_and_chart t ~unit_label =
    Paper_tables.grid t ^ Paper_tables.chart ~title:"" ~unit_label t
  in
  show (grid_and_chart f41 ~unit_label:"s" ^ Paper_tables.penalties sweep);
  show (Paper_tables.chart ~title:f42.Result_table.title ~unit_label:"%" f42);
  show (grid_and_chart f43 ~unit_label:"B");
  show (grid_and_chart f44 ~unit_label:"s");
  let panels = Figure_4_5.panels ?seed () in
  show (Figure_4_5.render panels);
  out_string
    (headline_summary
       {
         Claims.sweep;
         panels;
         table_4_4 = t44;
         table_4_5 = t45;
         figure_4_3 = f43;
         figure_4_4 = f44;
       });
  (* beyond the paper: the hybrid engine against its two parents *)
  let hybrid = Hybrid_compare.rows ?seed () in
  out_newline ();
  out_string (Hybrid_compare.render hybrid);
  match csv_dir with
  | None -> ()
  | Some dir ->
      write_csvs ~dir
        (List.map
           (fun (name, t) -> (name, Result_table.csv t))
           [
             ("table_4_1", t41);
             ("table_4_2", t42);
             ("table_4_3", t43);
             ("table_4_4", t44);
             ("table_4_5", t45);
             ("figure_4_1", f41);
             ("figure_4_2", f42);
             ("figure_4_3", f43);
             ("figure_4_4", f44);
           ]
        @ [
            ("figure_4_5", Figure_4_5.to_csv panels);
            ("hybrid_compare", Hybrid_compare.to_csv hybrid);
          ]);
      outf "\nCSV artifacts written to %s/\n" dir
