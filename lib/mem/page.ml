let size = 512

type index = int

let index_of_addr addr = addr / size
let addr_of_index idx = idx * size

let span ~lo ~hi =
  assert (lo < hi);
  (index_of_addr lo, index_of_addr (hi - 1))

let count_in ~lo ~hi =
  if lo >= hi then 0
  else
    let first, last = span ~lo ~hi in
    last - first + 1

type data = bytes

let zero () = Bytes.make size '\000'

let is_zero data =
  let rec loop i = i >= size || (Bytes.get data i = '\000' && loop (i + 1)) in
  loop 0

(* A cheap LCG keyed by (tag, idx); every byte depends on both so two
   pages never coincide unless (tag, idx) do. *)
let pattern_seed ~tag idx = (tag * 0x1000193) lxor (idx * 0x9E3779B9) lor 1

let fill_pattern buf off ~tag idx =
  let state = ref (pattern_seed ~tag idx) in
  for i = 0 to size - 1 do
    state := ((!state * 0x9E3779B9) + 0x7F4A7C15) land max_int;
    Bytes.set buf (off + i) (Char.chr ((!state lsr 24) land 0xFF))
  done

let pattern ~tag idx =
  let data = Bytes.create size in
  fill_pattern data 0 ~tag idx;
  data

let checksum data =
  let h = ref 0xCBF29CE484222 in
  for i = 0 to Bytes.length data - 1 do
    h := (!h lxor Char.code (Bytes.get data i)) * 0x100000001B3 land max_int
  done;
  !h

(* [checksum (pattern ~tag idx)] in one pass: the LCG's byte stream goes
   straight into the FNV fold, with no page buffer in between. *)
let pattern_checksum ~tag idx =
  let state = ref (pattern_seed ~tag idx) and h = ref 0xCBF29CE484222 in
  for _ = 1 to size do
    state := ((!state * 0x9E3779B9) + 0x7F4A7C15) land max_int;
    h := (!h lxor ((!state lsr 24) land 0xFF)) * 0x100000001B3 land max_int
  done;
  !h

let copy = Bytes.copy

(* --- immutable page values --------------------------------------------- *)

type value =
  | Zero
  | Pattern of { tag : int; idx : index }
  | Literal of { data : bytes; digest : int }

let zero_value = Zero
let pattern_value ~tag idx = Pattern { tag; idx }

(* The digest of a value always equals [checksum] of its materialized
   bytes, so symbolic and literal copies of the same page can never
   disagree.  Zero's digest is computed eagerly at module init (a [lazy]
   here would race when first forced from several domains at once);
   Pattern digests are memoized per domain — the memo is pure
   (checksum is a function of (tag, idx) alone), so domain-local tables
   trade a little recomputation for lock-free safety.  Worlds running on
   different domains therefore share no mutable state through this
   module.  The memo key packs tag above bit 32, idx below. *)
let zero_digest = checksum (zero ())

let checksum_value = function
  | Zero -> zero_digest
  | Pattern { tag; idx } -> pattern_checksum ~tag idx
  | Literal { data; _ } -> checksum data

let pattern_digests : int Accent_util.Int_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Accent_util.Int_tbl.create 4096)

let digest = function
  | Zero -> zero_digest
  | Pattern { tag; idx } when tag lsr 30 <> 0 || idx lsr 32 <> 0 ->
      pattern_checksum ~tag idx
  | Pattern { tag; idx } -> (
      let memo = Domain.DLS.get pattern_digests in
      let key = (tag lsl 32) lor idx in
      match Accent_util.Int_tbl.find memo key with
      | d -> d
      | exception Not_found ->
          let d = pattern_checksum ~tag idx in
          Accent_util.Int_tbl.add memo key d;
          d)
  | Literal { digest; _ } -> digest

let of_bytes data =
  if Bytes.length data <> size then
    invalid_arg "Page.of_bytes: not exactly one page";
  if is_zero data then Zero
  else Literal { data = Bytes.copy data; digest = checksum data }

let to_bytes = function
  | Zero -> zero ()
  | Pattern { tag; idx } -> pattern ~tag idx
  | Literal { data; _ } -> Bytes.copy data

let blit_value v buf off =
  match v with
  | Zero -> Bytes.fill buf off size '\000'
  | Pattern { tag; idx } -> fill_pattern buf off ~tag idx
  | Literal { data; _ } -> Bytes.blit data 0 buf off size

let is_symbolic = function Zero | Pattern _ -> true | Literal _ -> false

let equal_value a b =
  match (a, b) with
  | Zero, Zero -> true
  | Pattern p, Pattern q -> p.tag = q.tag && p.idx = q.idx
  | Literal l, Literal m -> l.digest = m.digest && Bytes.equal l.data m.data
  | _ ->
      (* cross-representation: the digest settles almost every case; the
         byte comparison closes the (negligible) collision window *)
      digest a = digest b && Bytes.equal (to_bytes a) (to_bytes b)

(* [len] must be a whole number of pages; each page slice becomes its own
   value, all-zero slices collapsing to [Zero]. *)
let values_of_bytes data =
  let len = Bytes.length data in
  if len mod size <> 0 then
    invalid_arg "Page.values_of_bytes: not a page multiple";
  Array.init (len / size) (fun i -> of_bytes (Bytes.sub data (i * size) size))

let bytes_of_values values =
  let buf = Bytes.create (Array.length values * size) in
  Array.iteri (fun i v -> blit_value v buf (i * size)) values;
  buf
