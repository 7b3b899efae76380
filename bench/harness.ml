(* What the scale, hotpath and cluster benchmarks share: a strict argv
   parser, one measurement (wall seconds and minor words around a thunk,
   and a best-of-N that insists every repeat did the same work), and one
   writer for the BENCH_*.json skeleton. *)

(* --- argv ------------------------------------------------------------- *)

type kind = Switch | Path | Int | Ints

type args = {
  smoke : bool;
  out : string;
  given : (string * string) list;  (* flag, value ("" for a switch) *)
}

let metavar = function
  | Switch -> ""
  | Path -> " PATH"
  | Int -> " N"
  | Ints -> " N,N,..."

(* Integer flags count things (pages, hosts, domains, seeds), so only
   positive values parse. *)
let positive s =
  match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None

let ints s =
  let xs = List.map positive (String.split_on_char ',' s) in
  if List.mem None xs then None else Some (List.map Option.get xs)

(* Parse [Sys.argv] against [--smoke], [--out PATH] and [flags].  An
   unknown flag, a flag without its value or a value that does not parse
   prints one usage line on stderr and exits 2, before the benchmark does
   any work or writes any file. *)
let parse ~name ~out flags =
  let spec = ("--smoke", Switch) :: ("--out", Path) :: flags in
  let usage =
    String.concat ""
      (List.map (fun (f, k) -> Printf.sprintf " [%s%s]" f (metavar k)) spec)
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: %s; usage: %s.exe%s\n%!" name msg name usage;
        exit 2)
      fmt
  in
  let check f k v =
    match k with
    | Int when positive v = None ->
        fail "%s expects a positive integer, got %S" f v
    | Ints when ints v = None ->
        fail "%s expects positive integers separated by commas, got %S" f v
    | Switch | Path | Int | Ints -> ()
  in
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest -> (
        match List.assoc_opt f spec with
        | None -> fail "unknown flag %s" f
        | Some Switch -> go ((f, "") :: acc) rest
        | Some k -> (
            match rest with
            | v :: rest when not (String.starts_with ~prefix:"--" v) ->
                check f k v;
                go ((f, v) :: acc) rest
            | _ -> fail "%s needs a value" f))
  in
  let given = go [] (List.tl (Array.to_list Sys.argv)) in
  {
    smoke = List.mem_assoc "--smoke" given;
    out = Option.value (List.assoc_opt "--out" given) ~default:out;
    given;
  }

(* The value of a flag [parse] accepted; the first one given wins. *)
let switch args f = List.mem_assoc f args.given

let int args f ~default =
  Option.fold (List.assoc_opt f args.given) ~none:default ~some:int_of_string

let int_list args f =
  Option.map (fun v -> Option.get (ints v)) (List.assoc_opt f args.given)

(* --- measurement ------------------------------------------------------ *)

type 'a measured = { value : 'a; wall_s : float; minor_words : float }

(* Wall seconds and minor words allocated while [f] runs.  Minor words
   are the honest allocation-pressure number: on OCaml 5.1
   [Gc.allocated_bytes] also counts the promoted words of every minor
   collection in the window (a bare [Gc.minor ()] with N live young
   words reports ~N words "allocated"), so it grows with live data.
   [Gc.minor_words] is this domain's count, so a thunk run on a pool
   domain is measured alone. *)
let measure f =
  let words0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  let value = f () in
  let wall1 = Unix.gettimeofday () in
  let words1 = Gc.minor_words () in
  { value; wall_s = wall1 -. wall0; minor_words = words1 -. words0 }

(* Run [f] [reps] times and keep the least wall clock.  A trial is
   deterministic, so every repeat must execute the same events and
   allocate the same minor words; the wall spread across repeats is then
   scheduler and cache noise, and the minimum is the least contaminated.
   A repeat that did different work stops the benchmark. *)
let best_of ~reps ~events f =
  let first = measure f in
  let best = ref first.wall_s in
  for rep = 2 to reps do
    let m = measure f in
    if
      events m.value <> events first.value
      || m.minor_words <> first.minor_words
    then
      failwith
        (Printf.sprintf
           "non-deterministic trial: repeat %d ran %d events and %.0f minor \
            words, repeat 1 ran %d and %.0f"
           rep (events m.value) m.minor_words (events first.value)
           first.minor_words);
    best := Float.min !best m.wall_s
  done;
  { first with wall_s = !best }

let per_sec n wall_s = float_of_int n /. Float.max 1e-9 wall_s
let ns_per m n = m.wall_s /. float_of_int n *. 1e9
let words_per m n = m.minor_words /. float_of_int n

(* --- JSON ------------------------------------------------------------- *)

(* A JSON array of pre-rendered rows, one per line. *)
let rows rs =
  "[\n" ^ String.concat ",\n" (List.map (( ^ ) "    ") rs) ^ "\n  ]"

(* Write [{"benchmark": name, "mode": smoke|full, sections...}] to [out],
   each section a key and its rendered JSON value.  It takes the parsed
   fields rather than [args], so a benchmark need not keep [args] alive
   through a run that measures the live heap. *)
let write_json ~name ~smoke ~out sections =
  let mode = if smoke then "smoke" else "full" in
  let fields =
    ("benchmark", Printf.sprintf {|"%s"|} name)
    :: ("mode", Printf.sprintf {|"%s"|} mode)
    :: sections
  in
  let field (k, v) = Printf.sprintf {|  "%s": %s|} k v in
  Out_channel.with_open_text out (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n" (List.map field fields)));
  Printf.printf "%s: wrote %s\n%!" name out
