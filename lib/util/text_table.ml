type align = Left | Right
type row = Cells of string list | Rule

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns;
    rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Text_table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun ws row ->
        match row with
        | Rule -> ws
        | Cells cells -> List.map2 (fun w c -> max w (String.length c)) ws cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let line cells =
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf s)
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    line (List.map (fun w -> String.make w '-') widths)
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  line (List.map2 (fun w h -> pad Left w h) widths t.headers);
  rule ();
  List.iter
    (fun row ->
      match row with
      | Rule -> rule ()
      | Cells cells ->
          line
            (List.map2
               (fun (w, a) c -> pad a w c)
               (List.combine widths t.aligns)
               cells))
    rows;
  Buffer.contents buf

let print t = print_string (render t)

let cell_f ?(dec = 2) x = Printf.sprintf "%.*f" dec x
let cell_bytes n = Bytesize.with_commas n
