let hbar_groups ?(width = 50) ?(unit_label = "") ~title groups =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let all_values = List.concat_map (fun (_, bars) -> List.map snd bars) groups in
  let max_abs =
    List.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. all_values
  in
  let has_negative = List.exists (fun v -> v < 0.) all_values in
  let label_width =
    List.fold_left
      (fun acc (_, bars) ->
        List.fold_left (fun acc (l, _) -> max acc (String.length l)) acc bars)
      0 groups
  in
  let scale v =
    if max_abs = 0. then 0
    else
      int_of_float (Float.round (Float.abs v /. max_abs *. float_of_int width))
  in
  let render_bar v =
    let n = scale v in
    if has_negative then
      (* Two half-axes around a '|' so slowdowns read at a glance. *)
      let half = width / 2 in
      let n = min half (if max_abs = 0. then 0 else
        int_of_float (Float.round (Float.abs v /. max_abs *. float_of_int half)))
      in
      if v < 0. then
        String.make (half - n) ' ' ^ String.make n '<' ^ "|"
      else String.make half ' ' ^ "|" ^ String.make n '>'
    else String.make n '#'
  in
  List.iter
    (fun (group, bars) ->
      if group <> "" then Buffer.add_string buf (Printf.sprintf "  %s\n" group);
      List.iter
        (fun (label, v) ->
          Buffer.add_string buf
            (Printf.sprintf "    %-*s %10.2f%s %s\n" label_width label v
               unit_label (render_bar v)))
        bars)
    groups;
  Buffer.contents buf

let stacked_timeline ?(width = 72) ~title ~y_label ~x_label lower upper =
  let height = 12 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let n_raw = max (Array.length lower) (Array.length upper) in
  if n_raw = 0 then begin
    Buffer.add_string buf "  (empty series)\n";
    Buffer.contents buf
  end
  else begin
    let get arr i = if i < Array.length arr then snd arr.(i) else 0. in
    let start arr i =
      if i < Array.length arr then fst arr.(i)
      else if Array.length arr > 0 then fst arr.(Array.length arr - 1)
      else 0.
    in
    let combined =
      Array.init n_raw (fun i ->
          let t = if i < Array.length lower then fst lower.(i) else start upper i in
          (t, get lower i, get upper i))
    in
    (* Squeeze both layers in lock-step so they stay aligned. *)
    let per =
      if n_raw <= width then 1 else (n_raw + width - 1) / width
    in
    let m = (n_raw + per - 1) / per in
    let agg =
      Array.init m (fun i ->
          let s = i * per and lo = ref 0. and up = ref 0. in
          let stop = min n_raw (s + per) in
          for j = s to stop - 1 do
            let _, l, u = combined.(j) in
            lo := !lo +. l;
            up := !up +. u
          done;
          let count = float_of_int (stop - s) in
          let t, _, _ = combined.(s) in
          (t, !lo /. count, !up /. count))
    in
    let max_v =
      Array.fold_left (fun acc (_, l, u) -> Float.max acc (l +. u)) 0. agg
    in
    let level v =
      if max_v = 0. then 0
      else int_of_float (Float.round (v /. max_v *. float_of_int height))
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s (peak %.1f; '#'=bulk, 'o'=fault traffic)\n" y_label
         max_v);
    for row = height downto 1 do
      Buffer.add_string buf "  |";
      Array.iter
        (fun (_, l, u) ->
          let ll = level l and tl = level (l +. u) in
          Buffer.add_char buf
            (if ll >= row then '#' else if tl >= row then 'o' else ' '))
        agg;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf ("  +" ^ String.make m '-' ^ "\n");
    let t_end, _, _ = agg.(m - 1) in
    Buffer.add_string buf
      (Printf.sprintf "   0%*s\n  %s\n" (m - 1)
         (Printf.sprintf "%.0f" t_end) x_label);
    Buffer.contents buf
  end
