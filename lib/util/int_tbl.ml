include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Multiply-xorshift: the table keeps only the low bits, so fold the
     high half of the product down — strided page indices then spread
     over all buckets, not just the few their low bits select. *)
  let hash (x : int) =
    let h = x * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 32)) land max_int
end)
