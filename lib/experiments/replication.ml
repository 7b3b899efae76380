type metric = {
  metric : string;
  mean : float;
  stddev : float;
  min_v : float;
  max_v : float;
  paper : float option;
}

let headline_values sweep =
  let penalty name =
    match Sweep.find sweep name with
    | rep -> Some (Paper_tables.iou_penalty rep)
    | exception Not_found -> None
  in
  List.filter_map Fun.id
    [
      Some
        ( "max copy/IOU transfer ratio (x)",
          Paper_tables.max_copy_over_iou sweep,
          Some Paper.max_copy_over_iou );
      Some
        ( "mean IOU byte savings (%)",
          Paper_tables.mean_byte_savings_pct sweep,
          Some Paper.byte_savings_pct );
      Some
        ( "mean IOU message-cost savings (%)",
          Paper_tables.mean_message_savings_pct sweep,
          Some Paper.message_cost_savings_pct );
      Option.map
        (fun p ->
          ( "Minprog IOU execution penalty (x)",
            p,
            Some Paper.minprog_iou_slowdown ))
        (penalty "Minprog");
      Option.map
        (fun p ->
          ( "Chess IOU execution penalty (%)",
            (p -. 1.) *. 100.,
            Some Paper.chess_iou_penalty_pct ))
        (penalty "Chess");
    ]

let run ?(seeds = [ 1L; 2L; 3L; 4L; 5L ])
    ?(specs = Accent_workloads.Representative.all) ?(progress = true) () =
  let per_seed =
    List.map
      (fun seed ->
        if progress then Printf.eprintf "  replication: seed %Ld\n%!" seed;
        headline_values
          (Sweep.run ~seed ~specs ~prefetches:[ 0; 1 ] ~progress:false ()))
      seeds
  in
  match per_seed with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i (name, _, paper) ->
          let stats = Accent_util.Stats.create () in
          List.iter
            (fun values ->
              let _, v, _ = List.nth values i in
              Accent_util.Stats.add stats v)
            per_seed;
          {
            metric = name;
            mean = Accent_util.Stats.mean stats;
            stddev = Accent_util.Stats.stddev stats;
            min_v = Accent_util.Stats.min_value stats;
            max_v = Accent_util.Stats.max_value stats;
            paper;
          })
        first

let render metrics =
  let t =
    Accent_util.Text_table.create
      ~title:
        "Replication across seeds (same compositions, re-randomised \
         layouts and traces)"
      [
        ("metric", Accent_util.Text_table.Left);
        ("mean", Accent_util.Text_table.Right);
        ("sd", Accent_util.Text_table.Right);
        ("min", Accent_util.Text_table.Right);
        ("max", Accent_util.Text_table.Right);
        ("paper", Accent_util.Text_table.Right);
      ]
  in
  List.iter
    (fun m ->
      Accent_util.Text_table.add_row t
        [
          m.metric;
          Accent_util.Text_table.cell_f ~dec:1 m.mean;
          Accent_util.Text_table.cell_f ~dec:1 m.stddev;
          Accent_util.Text_table.cell_f ~dec:1 m.min_v;
          Accent_util.Text_table.cell_f ~dec:1 m.max_v;
          (match m.paper with
          | Some p -> Accent_util.Text_table.cell_f ~dec:1 p
          | None -> "-");
        ])
    metrics;
  Accent_util.Text_table.render t
