(* The measurement harness: host timing, summaries of repeated samples,
   the fresh-process rep runner, peak RSS, a determinism check and a
   small JSON writer. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- summaries ----------------------------------------------------------- *)

type summary = { n : int; q1 : float; median : float; q3 : float }

(* Quartiles the way Python's [statistics.quantiles xs ~n:4] computes
   them (its default "exclusive" method), so a spread printed here is
   the spread a reader recomputes from the raw samples. *)
let summarize xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  match n with
  | 0 -> { n; q1 = nan; median = nan; q3 = nan }
  | 1 -> { n; q1 = a.(0); median = a.(0); q3 = a.(0) }
  | _ ->
      let q i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      { n; q1 = q 1; median = q 2; q3 = q 3 }

(* --- the rep runner ------------------------------------------------------ *)

(* Run [argv] as a fresh process and return its stdout lines and exit
   status.  A rep in its own process carries no heap over from the one
   before it, and its peak RSS is its own. *)
let run_child ?(env = Unix.environment ()) argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status)

(* --- process memory ------------------------------------------------------ *)

(* VmHWM: the high-water mark of this process's resident set, in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- determinism --------------------------------------------------------- *)

(* The keys whose values are not the same in every rep.  A deterministic
   simulation must give identical results for identical inputs, so any
   key listed here is a failed check. *)
let differing (reps : (string * string) list list) =
  match reps with
  | [] -> []
  | first :: rest ->
      List.filter_map
        (fun (k, v) ->
          if List.for_all (fun r -> List.assoc_opt k r = Some v) rest then None
          else Some k)
        first

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

(* the shortest of %.15g / %.17g that reads back as the same float, so a
   value is printed with every digit it was measured with *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Num f -> float_repr f
  | Int i -> string_of_int i
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end
