let table_4_4 =
  [
    ("Minprog", (0.37, 0.36, 0.82));
    ("Lisp-T", (2.12, 0.59, 2.79));
    ("Lisp-Del", (2.46, 0.73, 3.38));
    ("PM-Start", (0.98, 0.63, 1.67));
    ("PM-Mid", (1.01, 0.68, 1.74));
    ("PM-End", (1.4, 0.94, 2.45));
    ("Chess", (0.37, 0.43, 1.00));
  ]

let table_4_5 =
  [
    ("Minprog", (0.16, 5.0, 8.5));
    ("Lisp-T", (0.16, 25.8, 157.0));
    ("Lisp-Del", (0.17, 25.8, 168.5));
    ("PM-Start", (0.15, 9.0, 30.8));
    ("PM-Mid", (0.16, 13.0, 28.1));
    ("PM-End", (0.19, 20.5, 31.0));
    ("Chess", (0.21, 7.7, 11.7));
  ]

let insert_range_s = (0.263, 0.853)
let max_copy_over_iou = 1000.
let byte_savings_pct = 58.2
let message_cost_savings_pct = 47.8
let remote_fault_ms = 115.
let local_disk_fault_ms = 40.8
let minprog_iou_slowdown = 44.
let chess_iou_penalty_pct = 3.
let pasmac_hit_ratio = 0.78
let lisp_hit_ratio_range = (0.40, 0.20)
