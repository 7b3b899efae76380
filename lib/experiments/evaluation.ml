let headline_summary sweep =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* a representative's line, skipped when the sweep does not hold it or
     the prefetch values it reads *)
  let for_rep name f = try f (Sweep.find sweep name) with Not_found -> () in
  line "Headline claims (paper value in parentheses):";
  line "  max copy/IOU transfer-time ratio: %.0fx (up to ~%.0fx)"
    (Paper_tables.max_copy_over_iou sweep)
    Paper.max_copy_over_iou;
  line "  mean IOU byte savings over copy: %.1f%% (%.1f%%)"
    (Paper_tables.mean_byte_savings_pct sweep)
    Paper.byte_savings_pct;
  line "  mean IOU message-cost savings:   %.1f%% (%.1f%%)"
    (Paper_tables.mean_message_savings_pct sweep)
    Paper.message_cost_savings_pct;
  for_rep "Minprog" (fun minprog ->
      line "  Minprog IOU execution penalty:   %.0fx slower (%.0fx)"
        (Paper_tables.iou_penalty minprog)
        Paper.minprog_iou_slowdown);
  for_rep "Chess" (fun chess ->
      line "  Chess IOU execution penalty:     +%.1f%% (~%.0f%%)"
        ((Paper_tables.iou_penalty chess -. 1.) *. 100.)
        Paper.chess_iou_penalty_pct);
  for_rep "PM-Start" (fun pm ->
      let ratios =
        List.filter_map
          (fun (p, _) ->
            if p = 0 then None else Paper_tables.hit_ratio pm ~prefetch:p)
          pm.Sweep.iou
      in
      if ratios <> [] then
        line "  Pasmac prefetch hit ratio:       %.0f%%..%.0f%% (~%.0f%% flat)"
          (100. *. List.fold_left Float.min 1. ratios)
          (100. *. List.fold_left Float.max 0. ratios)
          (100. *. Paper.pasmac_hit_ratio));
  for_rep "Lisp-Del" (fun lisp ->
      let at p = Paper_tables.hit_ratio lisp ~prefetch:p in
      match (at 1, at 15) with
      | Some low_pf, Some high_pf ->
          let paper_low, paper_high = Paper.lisp_hit_ratio_range in
          line
            "  Lisp prefetch hit ratio pf1->pf15: %.0f%% -> %.0f%% (%.0f%% -> \
             %.0f%%)"
            (100. *. low_pf) (100. *. high_pf) (100. *. paper_low)
            (100. *. paper_high)
      | _ -> ());
  line "  prefetch=1 never hurts end-to-end: %b (paper: always helps)"
    (Paper_tables.pf1_always_helps sweep);
  line "  prefetch=1 reduces message costs:  %b (paper: slight drop)"
    (Paper_tables.pf1_reduces_cost sweep);
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
  out_string (headline_summary sweep);
  (* §4.4.3: "sustained network transmission speeds are reduced up to 66%" *)
  (match panels with
  | iou :: _ :: copy :: _ ->
      outf
        "  peak wire rate, IOU vs copy:     -%.0f%% (paper: reduced up to \
         66%%)\n"
        (100.
        *. (1.
           -. Figure_4_5.peak_rate iou /. Figure_4_5.peak_rate copy))
  | _ -> ());
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
