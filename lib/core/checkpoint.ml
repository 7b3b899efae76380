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

(* --- file round trip ----------------------------------------------------- *)

(* A checkpoint and its page values are plain data end to end (the PCB is
   a frozen copy, page values are immutable, traces are step arrays) with
   one exception: the AMap's interval map closes over its equality
   function, which Marshal rejects — so the file carries the AMap as its
   range list and rebuilds it on read.  Pages travel with the skeleton: a
   file must be restorable on a machine whose store never saw them. *)
type file = {
  f_proc_id : int;
  f_proc_name : string;
  f_pcb : Pcb.t;
  f_port_rights : Port.id list;
  f_amap_ranges : (int * int * Accessibility.t) list;
  f_trace : Trace.t;
  f_mem : mem_run list;
  f_backings : (int * Port.id) list;
  f_ws : Working_set.snapshot;
  f_dirty : Page.index list;
  f_resident : Page.index list;
  f_store_pages : Page.value list;
}

let write_file path store t =
  let store_pages =
    List.filter_map (Content_store.find store) (List.sort_uniq compare (digests t))
  in
  let file =
    {
      f_proc_id = t.core.Context.proc_id;
      f_proc_name = t.core.Context.proc_name;
      f_pcb = t.core.Context.pcb;
      f_port_rights = t.core.Context.port_rights;
      f_amap_ranges = Amap.ranges t.core.Context.amap;
      f_trace = t.core.Context.trace;
      f_mem = t.mem;
      f_backings = t.backings;
      f_ws = t.ws;
      f_dirty = t.dirty;
      f_resident = t.resident;
      f_store_pages = store_pages;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Marshal.to_channel oc file [])

let read_file path store =
  let ic = open_in_bin path in
  let file =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> (Marshal.from_channel ic : file))
  in
  List.iter (Content_store.insert store) file.f_store_pages;
  {
    core =
      {
        Context.proc_id = file.f_proc_id;
        proc_name = file.f_proc_name;
        pcb = file.f_pcb;
        port_rights = file.f_port_rights;
        amap = Amap.of_ranges file.f_amap_ranges;
        trace = file.f_trace;
      };
    mem = file.f_mem;
    backings = file.f_backings;
    ws = file.f_ws;
    dirty = file.f_dirty;
    resident = file.f_resident;
  }
