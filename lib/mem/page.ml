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
   module.

   The memo is a table of 64-slot chunks: the chunk of [(tag, idx)] is
   keyed by tag above bit 32 and [idx / 64] below, and slot [idx mod 64]
   holds the digest, or -1 (no digest is negative) until it is
   computed.  A run of consecutive pages reads one chunk per 64 pages. *)
let zero_digest = checksum (zero ())

let checksum_value = function
  | Zero -> zero_digest
  | Pattern { tag; idx } -> pattern_checksum ~tag idx
  | Literal { data; _ } -> checksum data

let pattern_memo : int array Accent_util.Int_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Accent_util.Int_tbl.create 64)

let memoized ~tag idx = tag lsr 30 = 0 && idx lsr 32 = 0
let chunk_key ~tag idx = (tag lsl 32) lor (idx lsr 6)

let memo_chunk memo key =
  match Accent_util.Int_tbl.find memo key with
  | chunk -> chunk
  | exception Not_found ->
      let chunk = Array.make 64 (-1) in
      Accent_util.Int_tbl.add memo key chunk;
      chunk

let digest = function
  | Zero -> zero_digest
  | Pattern { tag; idx } when memoized ~tag idx ->
      let chunk =
        memo_chunk (Domain.DLS.get pattern_memo) (chunk_key ~tag idx)
      in
      let d = chunk.(idx land 63) in
      if d >= 0 then d
      else begin
        let d = pattern_checksum ~tag idx in
        chunk.(idx land 63) <- d;
        d
      end
  | Pattern { tag; idx } -> pattern_checksum ~tag idx
  | Literal { digest; _ } -> digest

(* --- digests a run at a time --------------------------------------------- *)

(* Four [pattern_checksum]s in one loop, written to [out] at [p0]..[p3]:
   four independent LCG→FNV chains the CPU can overlap.  Nothing is
   masked inside the loop.  A sum's or a product's low bits depend only
   on its operands' low bits, so no bit above 61 reaches the low 62 bits:
   the byte each step reads (bits 24-31 of the state) and the hash's low
   62 bits, kept by one [land max_int] at the end, are those of the
   masked scalar loop. *)
let lanes out p0 s0 p1 s1 p2 s2 p3 s3 =
  let s0 = ref s0 and s1 = ref s1 and s2 = ref s2 and s3 = ref s3 in
  let h0 = ref 0xCBF29CE484222 and h1 = ref 0xCBF29CE484222 in
  let h2 = ref 0xCBF29CE484222 and h3 = ref 0xCBF29CE484222 in
  for _ = 1 to size do
    s0 := (!s0 * 0x9E3779B9) + 0x7F4A7C15;
    s1 := (!s1 * 0x9E3779B9) + 0x7F4A7C15;
    s2 := (!s2 * 0x9E3779B9) + 0x7F4A7C15;
    s3 := (!s3 * 0x9E3779B9) + 0x7F4A7C15;
    h0 := (!h0 lxor ((!s0 lsr 24) land 0xFF)) * 0x100000001B3;
    h1 := (!h1 lxor ((!s1 lsr 24) land 0xFF)) * 0x100000001B3;
    h2 := (!h2 lxor ((!s2 lsr 24) land 0xFF)) * 0x100000001B3;
    h3 := (!h3 lxor ((!s3 lsr 24) land 0xFF)) * 0x100000001B3
  done;
  out.(p0) <- !h0 land max_int;
  out.(p1) <- !h1 land max_int;
  out.(p2) <- !h2 land max_int;
  out.(p3) <- !h3 land max_int

(* A sink fills [out] with one digest per page.  Pattern pages it cannot
   answer at once wait, up to four at a time as (tag, idx, position)
   triples in [pending], for one call of [lanes].  [memo] is [None] on
   the integrity path; otherwise [chunk] is the memo chunk keyed [key]
   last read, so consecutive pages probe the table once per chunk. *)
type sink = {
  out : int array;
  memo : int array Accent_util.Int_tbl.t option;
  mutable key : int;
  mutable chunk : int array;
  pending : int array;
  mutable n : int;
}

let sink ~memo out =
  {
    out;
    memo = (if memo then Some (Domain.DLS.get pattern_memo) else None);
    key = -1;
    chunk = [||];
    pending = Array.make 12 0;
    n = 0;
  }

(* The memo slot array holding [(tag, idx)]; [memoized ~tag idx]. *)
let sink_chunk s memo ~tag idx =
  let key = chunk_key ~tag idx in
  if key <> s.key then begin
    s.chunk <- memo_chunk memo key;
    s.key <- key
  end;
  s.chunk

let memoize s ~tag idx d =
  match s.memo with
  | Some memo when memoized ~tag idx ->
      (sink_chunk s memo ~tag idx).(idx land 63) <- d
  | _ -> ()

let flush s =
  let q = s.pending in
  if s.n = 4 then
    lanes s.out q.(2)
      (pattern_seed ~tag:q.(0) q.(1))
      q.(5)
      (pattern_seed ~tag:q.(3) q.(4))
      q.(8)
      (pattern_seed ~tag:q.(6) q.(7))
      q.(11)
      (pattern_seed ~tag:q.(9) q.(10))
  else
    for k = 0 to s.n - 1 do
      s.out.(q.((3 * k) + 2)) <- pattern_checksum ~tag:q.(3 * k) q.((3 * k) + 1)
    done;
  for k = 0 to s.n - 1 do
    memoize s ~tag:q.(3 * k) q.((3 * k) + 1) s.out.(q.((3 * k) + 2))
  done;
  s.n <- 0

let sink_page s ~tag idx pos =
  let d =
    match s.memo with
    | Some memo when memoized ~tag idx ->
        (sink_chunk s memo ~tag idx).(idx land 63)
    | _ -> -1
  in
  if d >= 0 then s.out.(pos) <- d
  else begin
    let q = s.pending and k = 3 * s.n in
    q.(k) <- tag;
    q.(k + 1) <- idx;
    q.(k + 2) <- pos;
    s.n <- s.n + 1;
    if s.n = 4 then flush s
  end

let sink_pattern s ~tag ~first ~len ~pos =
  for i = 0 to len - 1 do
    sink_page s ~tag (first + i) (pos + i)
  done

let sink_values s values ~off ~len ~pos =
  for i = 0 to len - 1 do
    match values.(off + i) with
    | Zero -> s.out.(pos + i) <- zero_digest
    | Pattern { tag; idx } -> sink_page s ~tag idx (pos + i)
    | Literal { data; digest } ->
        s.out.(pos + i) <-
          (match s.memo with Some _ -> digest | None -> checksum data)
  done

let sink_close s = flush s

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
