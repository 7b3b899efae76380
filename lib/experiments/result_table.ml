open Accent_util

type align = Left | Right

type format =
  | Bytes
  | Fixed of int
  | Bracketed of int
  | Custom of (float -> string)
  | Text of align

type column = {
  header : string;
  csv : string;
  format : format;
  in_paper : bool;
}

type number = { measured : float; paper : float option }
type cell = Number of number | Label of string
type row = { keys : string list; cells : cell list }
type line = Row of row | Rule

type t = {
  title : string;
  key_headers : (string * string) list;
  columns : column list;
  lines : line list;
}

let column header csv format = { header; csv; format; in_paper = false }
let measured v = Number { measured = v; paper = None }
let row keys cells = Row { keys; cells }

let table title ?(keys = []) columns lines =
  { title; key_headers = keys; columns; lines }

(* A row with a key or a cell too many or too few names its table,
   rather than failing inside a [List.map2]. *)
let check t r =
  if
    List.length r.keys <> List.length t.key_headers
    || List.length r.cells <> List.length t.columns
  then
    invalid_arg
      (Printf.sprintf
         "Result_table %S: a row of %d keys and %d cells under %d and %d \
          headers"
         t.title (List.length r.keys) (List.length r.cells)
         (List.length t.key_headers) (List.length t.columns));
  r

let rows t =
  List.filter_map (function Row r -> Some (check t r) | Rule -> None) t.lines

let number format v =
  match format with
  | Bytes -> Bytesize.with_commas (int_of_float v)
  | Fixed n | Bracketed n -> Printf.sprintf "%.*f" n v
  | Custom f -> f v
  | Text _ -> Printf.sprintf "%g" v

let cell_text column = function
  | Label s -> s
  | Number { measured; paper } -> (
      let v = number column.format measured in
      let v = match column.format with Bracketed _ -> "[" ^ v ^ "]" | _ -> v in
      match paper with
      | Some p -> Printf.sprintf "%s (%s)" v (number column.format p)
      | None -> v)

let pad (width, align) s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

(* The aligned layout: the title, the headers padded on the right and
   ruled off, then the rows.  Two spaces part the columns, and each is as
   wide as its widest entry. *)
let text t =
  let headers =
    List.map fst t.key_headers @ List.map (fun c -> c.header) t.columns
  in
  let aligns =
    List.map (fun _ -> Left) t.key_headers
    @ List.map (fun c -> match c.format with Text a -> a | _ -> Right) t.columns
  in
  let entries = function
    | Rule -> None
    | Row r ->
        let r = check t r in
        Some (r.keys @ List.map2 cell_text t.columns r.cells)
  in
  let lines = List.map entries t.lines in
  let widen ws es = List.map2 (fun w s -> max w (String.length s)) ws es in
  let widths =
    List.fold_left
      (fun ws -> Option.fold ~none:ws ~some:(widen ws))
      (List.map String.length headers)
      lines
  in
  let line aligns entries =
    String.concat "  " (List.map2 pad (List.combine widths aligns) entries)
    ^ "\n"
  in
  let rule = line aligns (List.map (fun w -> String.make w '-') widths) in
  String.concat ""
    ((t.title ^ "\n")
    :: line (List.map (fun _ -> Left) headers) headers
    :: rule
    :: List.map (Option.fold ~none:rule ~some:(line aligns)) lines)

let quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_line fields = String.concat "," (List.map quote fields)

let csv_value format v =
  match format with
  | Bytes -> Printf.sprintf "%d" (int_of_float v)
  | Fixed _ | Bracketed _ | Custom _ | Text _ -> Printf.sprintf "%.6f" v

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
    @ List.map
        (fun (c, x) ->
          match x with
          | Number n -> csv_value c.format n.measured
          | Label s -> s)
        both
    @ List.filter_map
        (fun (c, x) ->
          if not c.in_paper then None
          else
            match x with
            | Number { paper = Some p; _ } -> Some (csv_value c.format p)
            | _ -> Some "")
        both
  in
  String.concat ""
    (List.map (fun l -> csv_line l ^ "\n") (header :: List.map fields (rows t)))

let find t ~row ~column =
  let r = List.find (fun r -> r.keys = row) (rows t) in
  let csv_headers = List.map (fun c -> c.csv) t.columns in
  match List.assoc column (List.combine csv_headers r.cells) with
  | Number n -> n
  | Label _ -> raise Not_found
