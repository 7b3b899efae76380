open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_net
open Accent_kernel

type mem_run =
  | Ck_zero of { lo : int; hi : int }
  | Ck_real of {
      lo : int;
      digests : int array;
      homes : (int * Address_space.page_home) list;  (** run-length encoded *)
    }
  | Ck_imag of { lo : int; hi : int; segment_id : int; offset : int }

type t = {
  core : Context.core;
  mem : mem_run list;
  backings : (int * Port.id) list;
  ws : Working_set.snapshot;
  dirty : Page.index list;
  resident : Page.index list;
}

let proc_id t = t.core.Context.proc_id
let proc_name t = t.core.Context.proc_name

let pages t =
  List.fold_left
    (fun acc run ->
      match run with
      | Ck_real { digests; _ } -> acc + Array.length digests
      | Ck_zero _ | Ck_imag _ -> acc)
    0 t.mem

let digests t =
  List.concat_map
    (function
      | Ck_real { digests; _ } -> Array.to_list digests
      | Ck_zero _ | Ck_imag _ -> [])
    t.mem

(* --- save ---------------------------------------------------------------- *)

let save ?bus ?(at = Time.zero) store (image : Proc_image.t) =
  (* privatise the mutable PCB first: unlike excision, the process
     keeps executing after a checkpoint *)
  let image = Proc_image.freeze image in
  let new_bytes = ref 0 in
  let bank run =
    let digests = Page_run.digests run in
    Page_run.iteri
      (fun i value ->
        if not (Content_store.mem store digests.(i)) then
          new_bytes := !new_bytes + Page.size;
        Content_store.insert store value)
      run;
    digests
  in
  let mem =
    List.map
      (fun (run : Address_space.image_run) ->
        match run with
        | Address_space.Img_zero { lo; hi } -> Ck_zero { lo; hi }
        | Address_space.Img_real { lo; run; homes } ->
            Ck_real { lo; digests = bank run; homes }
        | Address_space.Img_imag { lo; hi; segment_id; offset } ->
            Ck_imag { lo; hi; segment_id; offset })
      image.Proc_image.mem
  in
  let ck =
    {
      core = image.Proc_image.core;
      mem;
      backings = image.Proc_image.backings;
      ws = image.Proc_image.ws;
      dirty = image.Proc_image.dirty;
      resident = image.Proc_image.resident;
    }
  in
  Option.iter
    (fun bus ->
      Mig_event.publish bus
        {
          Mig_event.at;
          proc_id = proc_id ck;
          kind =
            Mig_event.Checkpointed { pages = pages ck; new_bytes = !new_bytes };
        })
    bus;
  ck

(* --- restore ------------------------------------------------------------- *)

(* Resolve every digest back to a page value, re-deriving each value's
   digest and checking it against the recorded name: a store that lost a
   page (LRU pressure, crash) or returns a poisoned value fails loudly
   rather than reincarnating a corrupt process. *)
let rebuild_image store t =
  let resolve digest =
    match Content_store.find store digest with
    | None -> failwith "Checkpoint: page missing from durable store"
    | Some value ->
        if Page.checksum_value value <> digest then
          failwith "Checkpoint: page fails digest integrity check";
        value
  in
  let mem =
    List.map
      (fun run ->
        match run with
        | Ck_zero { lo; hi } -> Address_space.Img_zero { lo; hi }
        | Ck_real { lo; digests; homes } ->
            Address_space.Img_real
              { lo; run = Page_run.of_array (Array.map resolve digests); homes }
        | Ck_imag { lo; hi; segment_id; offset } ->
            Address_space.Img_imag { lo; hi; segment_id; offset })
      t.mem
  in
  {
    Proc_image.core = t.core;
    mem;
    backings = t.backings;
    ws = t.ws;
    dirty = t.dirty;
    resident = t.resident;
  }

let restore ?cost_model ?bus store host t ~k =
  let image = rebuild_image store t in
  let costs = Option.value cost_model ~default:(Host.costs host) in
  let rimas, _layout = Proc_image.to_rimas image in
  let cost = Insert.estimate_ms costs t.core rimas in
  ignore
    (Engine.schedule (Host.engine host) ~delay:(Time.ms cost) (fun () ->
         let proc = Proc_image.restore host image in
         proc.Proc.pcb.Pcb.status <- Pcb.Ready;
         Host.adopt host proc;
         Option.iter
           (fun bus ->
             Mig_event.publish bus
               {
                 Mig_event.at = Engine.now (Host.engine host);
                 proc_id = proc_id t;
                 kind = Mig_event.Restored { pages = pages t };
               })
           bus;
         k proc))

(* --- file codec ---------------------------------------------------------- *)

(* The layout is documented in checkpoint.mli.  Every integer is 8 bytes
   little-endian, every float its IEEE bits and every list
   length-prefixed, so the bytes depend on neither the machine nor the
   OCaml version.  The file carries no AMap: the decoder rebuilds it from
   the mem runs, as Address_space.build_amap reads it off the regions
   that export_image walks. *)

let magic = "ACCENTCK"
let version = 1
let digest_bytes = 16
let statuses = Pcb.[| Ready; Running; Blocked; Terminated; Excised |]
let homes = Address_space.[| Home_resident; Home_disk; Home_cold |]

let code_of table v =
  let rec go i = if table.(i) = v then i else go (i + 1) in
  go 0

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_byte b n = Buffer.add_char b (Char.chr n)

let add_list b f l =
  add_int b (List.length l);
  List.iter f l

let add_page b (digest, (value : Page.value)) =
  add_int b digest;
  match value with
  | Zero -> add_byte b 0
  | Pattern { tag; idx } ->
      add_byte b 1;
      add_int b tag;
      add_int b idx
  | Literal { data; _ } ->
      add_byte b 2;
      Buffer.add_bytes b data

let add_run b = function
  | Ck_zero { lo; hi } ->
      add_byte b 0;
      add_int b lo;
      add_int b hi
  | Ck_real { lo; digests; homes = rle } ->
      add_byte b 1;
      add_int b lo;
      add_list b (add_int b) (Array.to_list digests);
      add_list b
        (fun (len, home) ->
          add_int b len;
          add_byte b (code_of homes home))
        rle
  | Ck_imag { lo; hi; segment_id; offset } ->
      add_byte b 2;
      add_int b lo;
      add_int b hi;
      add_int b segment_id;
      add_int b offset

let add_trace b trace =
  let n = Trace.length trace in
  add_int b n;
  for i = 0 to n - 1 do
    add_int b (Trace.page_at trace i)
  done;
  for i = 0 to n - 1 do
    add_float b (Trace.think_at trace i)
  done;
  for i = 0 to n - 1 do
    add_byte b (Bool.to_int (Trace.write_at trace i))
  done

let write_file path store t =
  let digests = List.sort_uniq compare (digests t) in
  match List.find_opt (fun d -> not (Content_store.mem store d)) digests with
  | Some d -> Error (Printf.sprintf "%s: digest %d is not in the store" path d)
  | None -> (
      let b = Buffer.create 4096 in
      let core = t.core and pcb = t.core.Context.pcb in
      Buffer.add_string b magic;
      add_int b version;
      (* peek: writing a file moves no hit, miss or LRU position *)
      add_list b
        (fun d -> add_page b (d, Option.get (Content_store.peek store d)))
        digests;
      add_int b core.Context.proc_id;
      add_int b (String.length core.Context.proc_name);
      Buffer.add_string b core.Context.proc_name;
      add_byte b (code_of statuses pcb.Pcb.status);
      List.iter (add_int b)
        [
          pcb.Pcb.pc; pcb.faults_zero; pcb.faults_disk; pcb.faults_imag;
          pcb.migrations;
        ];
      add_list b
        (fun (port : Port.id) -> add_int b (port :> int))
        core.Context.port_rights;
      add_trace b core.Context.trace;
      add_list b (add_run b) t.mem;
      add_list b
        (fun (segment_id, (port : Port.id)) ->
          add_int b segment_id;
          add_int b (port :> int))
        t.backings;
      add_list b
        (fun (page, time) ->
          add_int b page;
          add_float b (Time.to_ms time))
        t.ws.Working_set.entries;
      add_int b t.ws.Working_set.snap_refs;
      add_list b (add_int b) t.dirty;
      add_list b (add_int b) t.resident;
      Buffer.add_string b (Digest.string (Buffer.contents b));
      match
        Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
      with
      | () -> Ok ()
      | exception Sys_error e -> Error e)

(* Decoding reads through one cursor; every read is checked and the
   first failure aborts with its one-line reason. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun reason -> raise (Bad reason)) fmt

type reader = { s : string; mutable pos : int; stop : int }

let left r = r.stop - r.pos

let take r n =
  if n > left r then bad "truncated";
  let pos = r.pos in
  r.pos <- pos + n;
  pos

let byte r = Char.code r.s.[take r 1]

let int r what =
  let x = String.get_int64_le r.s (take r 8) in
  let n = Int64.to_int x in
  if Int64.of_int n <> x then bad "%s does not fit an int" what;
  n

let of_table r what table =
  let code = byte r in
  if code >= Array.length table then bad "bad %s byte %d" what code;
  table.(code)

(* A count is checked against the bytes left, at [item] bytes per
   element at least, before anything is allocated for it. *)
let count r what ~item =
  let n = int r what in
  if n < 0 || n > left r / item then bad "%s count %d exceeds the file" what n;
  n

let array r what ~item f = Array.init (count r what ~item) (fun _ -> f r)
let list r what ~item f = Array.to_list (array r what ~item f)

let id r what =
  let n = int r what in
  if n <= 0 then bad "%s %d is not positive" what n;
  n

let port r =
  let n = int r "port" in
  match Port.of_int n with Some port -> port | None -> bad "port id %d" n

let max_page = Vaddr.space_limit / Page.size

let page r what =
  let p = int r what in
  if p < 0 || p >= max_page then bad "%s %d outside the address space" what p;
  p

let time r what =
  let x = Int64.float_of_bits (String.get_int64_le r.s (take r 8)) in
  if not (Float.is_finite x && x >= 0.) then bad "%s %g is not a time" what x;
  x

let page_entry r =
  let digest = int r "digest" in
  let value =
    match byte r with
    | 0 -> Page.zero_value
    | 1 ->
        let tag = int r "pattern tag" in
        Page.pattern_value ~tag (int r "pattern index")
    | 2 ->
        let pos = take r Page.size in
        Page.of_bytes (Bytes.of_string (String.sub r.s pos Page.size))
    | k -> bad "bad page kind byte %d" k
  in
  (digest, value)

(* One mem run, starting at or after [prev_hi] (where the previous run
   ended): runs come out ascending, disjoint, page-aligned and inside
   the address space, as Address_space.import_image assumes. *)
let mem_run r ~named ~prev_hi =
  let range lo hi =
    if
      lo < prev_hi || hi <= lo || hi > Vaddr.space_limit
      || lo mod Page.size <> 0
      || hi mod Page.size <> 0
    then bad "mem run [%d, %d) is not an ascending page-aligned range" lo hi
  in
  match byte r with
  | 0 ->
      let lo = int r "run start" in
      let hi = int r "run end" in
      range lo hi;
      Ck_zero { lo; hi }
  | 1 ->
      let lo = int r "run start" in
      let digests =
        array r "real run" ~item:8 (fun r ->
            let d = int r "digest" in
            if not (Hashtbl.mem named d) then
              bad "digest %d is not in the page table" d;
            d)
      in
      let n = Array.length digests in
      if n > max_page then bad "real run of %d pages" n;
      range lo (lo + (n * Page.size));
      let rle =
        list r "homes" ~item:9 (fun r ->
            let len = int r "home length" in
            if len <= 0 then bad "home length %d" len;
            (len, of_table r "home" homes))
      in
      if List.fold_left (fun acc (len, _) -> acc + len) 0 rle <> n then
        bad "homes of the run at %d do not sum to its %d pages" lo n;
      Ck_real { lo; digests; homes = rle }
  | 2 ->
      let lo = int r "run start" in
      let hi = int r "run end" in
      range lo hi;
      let segment_id = id r "segment" in
      let offset = int r "segment offset" in
      if offset < 0 || offset mod Page.size <> 0 || offset > max_int - (hi - lo)
      then bad "segment offset %d" offset;
      Ck_imag { lo; hi; segment_id; offset }
  | k -> bad "bad mem run byte %d" k

let run_bounds = function
  | Ck_zero { lo; hi } | Ck_imag { lo; hi; _ } -> (lo, hi)
  | Ck_real { lo; digests; _ } -> (lo, lo + (Array.length digests * Page.size))

let decode s =
  let n = String.length s in
  let header = String.length magic + 8 in
  if n < header + digest_bytes then
    bad "too short for a checkpoint file (%d bytes)" n;
  if not (String.starts_with ~prefix:magic s) then bad "not a checkpoint file";
  let r = { s; pos = String.length magic; stop = n - digest_bytes } in
  let v = int r "version" in
  if v <> version then bad "unsupported format version %d" v;
  if Digest.substring s 0 r.stop <> String.sub s r.stop digest_bytes then
    bad "digest mismatch: the file is truncated or corrupt";
  let prev = ref (-1) in
  let table =
    array r "page table" ~item:9 (fun r ->
        let ((d, _) as entry) = page_entry r in
        if d <= !prev then bad "page table not in ascending digest order";
        prev := d;
        entry)
  in
  let named = Hashtbl.create (Array.length table) in
  Array.iter (fun (d, _) -> Hashtbl.replace named d ()) table;
  let proc_id = id r "process id" in
  let name_len = count r "name" ~item:1 in
  let proc_name = String.sub s (take r name_len) name_len in
  let status = of_table r "status" statuses in
  let pc = int r "pc" in
  let faults_zero = int r "zero faults" in
  let faults_disk = int r "disk faults" in
  let faults_imag = int r "imaginary faults" in
  let migrations = int r "migrations" in
  let port_rights = list r "port rights" ~item:8 port in
  let steps = count r "trace" ~item:17 in
  let pages = Array.init steps (fun _ -> page r "trace page") in
  let think_ms = Array.init steps (fun _ -> time r "think time") in
  let writes =
    Bytes.init steps (fun _ ->
        match byte r with
        | (0 | 1) as w -> Char.chr w
        | w -> bad "bad write flag byte %d" w)
  in
  if pc < 0 || pc > steps then bad "pc %d outside a trace of %d steps" pc steps;
  let prev_hi = ref 0 in
  let mem =
    list r "mem runs" ~item:17 (fun r ->
        let run = mem_run r ~named ~prev_hi:!prev_hi in
        prev_hi := snd (run_bounds run);
        run)
  in
  let amap =
    Amap.of_ranges
      (List.map
         (fun run ->
           let lo, hi = run_bounds run in
           let cls : Accessibility.t =
             match run with
             | Ck_zero _ -> Real_zero_mem
             | Ck_real _ -> Real_mem
             | Ck_imag _ -> Imag_mem
           in
           (lo, hi, cls))
         mem)
  in
  Array.iter
    (fun p ->
      if Amap.classify amap (Page.addr_of_index p) = Bad_mem then
        bad "trace page %d is not validated" p)
    pages;
  let backings =
    list r "backings" ~item:16 (fun r ->
        let segment_id = id r "segment" in
        (segment_id, port r))
  in
  let backed = Hashtbl.create 16 in
  List.iter (fun (segment, _) -> Hashtbl.replace backed segment ()) backings;
  List.iter
    (function
      | Ck_imag { segment_id; _ } when not (Hashtbl.mem backed segment_id) ->
          bad "imaginary segment %d has no backing" segment_id
      | Ck_zero _ | Ck_real _ | Ck_imag _ -> ())
    mem;
  let last = ref (-1., -1) in
  let entries =
    list r "working set" ~item:16 (fun r ->
        let p = page r "working-set page" in
        let at = time r "working-set time" in
        if compare (at, p) !last <= 0 then bad "working set not ascending";
        last := (at, p);
        (p, Time.ms at))
  in
  let snap_refs = int r "reference count" in
  let dirty = list r "dirty pages" ~item:8 (fun r -> page r "dirty page") in
  let resident =
    list r "resident pages" ~item:8 (fun r -> page r "resident page")
  in
  if left r <> 0 then bad "%d unread bytes before the digest" (left r);
  let core =
    {
      Context.proc_id;
      proc_name;
      pcb =
        { Pcb.status; pc; faults_zero; faults_disk; faults_imag; migrations };
      port_rights;
      amap;
      trace = Trace.of_arrays ~pages ~think_ms ~writes;
    }
  in
  let ws = { Working_set.entries; snap_refs } in
  ({ core; mem; backings; ws; dirty; resident }, table)

(* The pages enter the store only once the whole file has decoded, each
   digest re-derived from its content against the file's claim. *)
let read_file path store =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match decode s with
      | exception Bad reason -> Error (path ^ ": " ^ reason)
      | t, table ->
          let claimed = Array.map fst table in
          let run = Page_run.of_array (Array.map snd table) in
          if
            Content_store.insert_wire_run store ~claimed run
            < Array.length table
          then Error (path ^ ": a page fails its digest")
          else if not (Array.for_all (Content_store.mem store) claimed) then
            Error (path ^ ": the store cannot keep every page")
          else Ok t)
