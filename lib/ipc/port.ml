type id = int

let fresh ids = Accent_sim.Ids.next ids
let of_int n = if n > 0 then Some n else None
let equal = Int.equal
let pp ppf id = Format.fprintf ppf "port#%d" id

type right = Receive | Send | Ownership

let right_to_string = function
  | Receive -> "Receive"
  | Send -> "Send"
  | Ownership -> "Ownership"

module Set = Set.Make (Int)

module Table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
