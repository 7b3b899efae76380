type t = Real_zero_mem | Real_mem | Imag_mem | Bad_mem

let equal (a : t) b = a = b

let to_string = function
  | Real_zero_mem -> "RealZeroMem"
  | Real_mem -> "RealMem"
  | Imag_mem -> "ImagMem"
  | Bad_mem -> "BadMem"

let pp ppf t = Format.pp_print_string ppf (to_string t)
