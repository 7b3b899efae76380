open Accent_util

type format =
  | Bytes
  | Fixed of int
  | Bracketed of int
  | Custom of (float -> string)

type column = {
  header : string;
  csv : string;
  format : format;
  in_paper : bool;
}

type cell = { measured : float; paper : float option }
type row = { keys : string list; cells : cell list }

type t = {
  title : string;
  key_headers : (string * string) list;
  columns : column list;
  rows : row list;
}

let column header csv format = { header; csv; format; in_paper = false }
let measured v = { measured = v; paper = None }

let number format v =
  match format with
  | Bytes -> Text_table.cell_bytes (int_of_float v)
  | Fixed n | Bracketed n -> Printf.sprintf "%.*f" n v
  | Custom f -> f v

let cell_text column cell =
  let v = number column.format cell.measured in
  let v = match column.format with Bracketed _ -> "[" ^ v ^ "]" | _ -> v in
  match cell.paper with
  | Some p -> Printf.sprintf "%s (%s)" v (number column.format p)
  | None -> v

let text t =
  let table =
    Text_table.create ~title:t.title
      (List.map (fun (h, _) -> (h, Text_table.Left)) t.key_headers
      @ List.map (fun c -> (c.header, Text_table.Right)) t.columns)
  in
  List.iter
    (fun r ->
      Text_table.add_row table (r.keys @ List.map2 cell_text t.columns r.cells))
    t.rows;
  Text_table.render table

let quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_line fields = String.concat "," (List.map quote fields)

let csv_value format v =
  match format with
  | Bytes -> Printf.sprintf "%d" (int_of_float v)
  | Fixed _ | Bracketed _ | Custom _ -> Printf.sprintf "%.6f" v

let csv t =
  let paper_columns = List.filter (fun c -> c.in_paper) t.columns in
  let header =
    List.map snd t.key_headers
    @ List.map (fun c -> c.csv) t.columns
    @ List.map (fun c -> "paper_" ^ c.csv) paper_columns
  in
  let fields r =
    let both = List.combine t.columns r.cells in
    r.keys
    @ List.map (fun (c, x) -> csv_value c.format x.measured) both
    @ List.filter_map
        (fun (c, x) ->
          if c.in_paper then
            Some (Option.fold ~none:"" ~some:(csv_value c.format) x.paper)
          else None)
        both
  in
  String.concat ""
    (List.map (fun l -> csv_line l ^ "\n") (header :: List.map fields t.rows))

let find t ~row ~column =
  let r = List.find (fun r -> r.keys = row) t.rows in
  List.assoc column (List.combine (List.map (fun c -> c.csv) t.columns) r.cells)
