type transfer =
  | Pure_copy
  | Pure_iou
  | Resident_set
  | Working_set of { window_ms : float }
  | Pre_copy of { max_rounds : int; threshold_pages : int }
  | Hybrid of { max_rounds : int; threshold_pages : int; window_ms : float }

type t = { transfer : transfer; prefetch : int }

let pure_copy = { transfer = Pure_copy; prefetch = 0 }
let pure_iou ?(prefetch = 0) () = { transfer = Pure_iou; prefetch }
let resident_set ?(prefetch = 0) () = { transfer = Resident_set; prefetch }

let working_set ?(window_ms = 5_000.) ?(prefetch = 0) () =
  { transfer = Working_set { window_ms }; prefetch }

let pre_copy ?(max_rounds = 5) ?(threshold_pages = 8) () =
  { transfer = Pre_copy { max_rounds; threshold_pages }; prefetch = 0 }

let hybrid ?(max_rounds = 5) ?(threshold_pages = 8) ?(window_ms = 5_000.) () =
  { transfer = Hybrid { max_rounds; threshold_pages; window_ms }; prefetch = 0 }

let paper_prefetch_values = [ 0; 1; 3; 7; 15 ]

let is_live t =
  match t.transfer with
  | Working_set _ | Pre_copy _ | Hybrid _ -> true
  | Pure_copy | Pure_iou | Resident_set -> false

let transfer_name = function
  | Pure_copy -> "copy"
  | Pure_iou -> "iou"
  | Resident_set -> "rs"
  | Working_set _ -> "ws"
  | Pre_copy _ -> "precopy"
  | Hybrid _ -> "hybrid"

let name t =
  if t.prefetch = 0 then transfer_name t.transfer
  else Printf.sprintf "%s+pf%d" (transfer_name t.transfer) t.prefetch

