type range = { lo : int; hi : int }

let space_limit = 4 * 1024 * 1024 * 1024

let range lo hi =
  if not (0 <= lo && lo <= hi && hi <= space_limit) then
    invalid_arg "Vaddr.range";
  { lo; hi }

let of_len lo len = range lo (lo + len)
let len { lo; hi } = hi - lo
let contains { lo; hi } x = lo <= x && x < hi
let overlaps a b = a.lo < b.hi && b.lo < a.hi

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo < hi then Some { lo; hi } else None

let page_aligned { lo; hi } = lo mod Page.size = 0 && hi mod Page.size = 0

let align_out { lo; hi } =
  {
    lo = lo / Page.size * Page.size;
    hi = (hi + Page.size - 1) / Page.size * Page.size;
  }

let pp ppf { lo; hi } = Format.fprintf ppf "[0x%x,0x%x)" lo hi
