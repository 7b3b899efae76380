open Accent_mem
open Accent_ipc

type t = {
  core : Context.core;
  mem : Address_space.image_run list;
  backings : (int * Port.id) list;
  ws : Working_set.snapshot;
  dirty : Page.index list;
  resident : Page.index list;
}

let capture host proc =
  let space = Proc.space_exn proc in
  let pager = Host.pager host in
  let mem = Address_space.export_image space in
  let backings =
    List.filter_map
      (fun run ->
        match (run : Address_space.image_run) with
        | Address_space.Img_zero _ | Address_space.Img_real _ -> None
        | Address_space.Img_imag { segment_id; _ } -> (
            match Pager.backing_port pager ~segment_id with
            | Some port -> Some (segment_id, port)
            | None ->
                failwith "Excise: imaginary region with unknown backing port"))
      mem
    |> List.sort_uniq compare
  in
  {
    core =
      {
        Context.proc_id = proc.Proc.id;
        proc_name = proc.Proc.name;
        pcb = proc.Proc.pcb;
        port_rights = proc.Proc.ports;
        amap = Address_space.build_amap space;
        trace = proc.Proc.trace;
      };
    mem;
    backings;
    ws = Working_set.export proc.Proc.working_set;
    dirty = Proc.written_pages proc;
    resident = List.map fst (Address_space.resident_pages space);
  }

let backing_port_exn t ~segment_id =
  match List.assoc_opt segment_id t.backings with
  | Some port -> port
  | None -> failwith "Proc_image: imaginary region with unknown backing port"

(* Collapse the image's memory into a contiguous RIMAS (paper §3.1),
   assigning collapsed offsets to content-bearing runs and merging
   adjacent Data chunks into the single physical area the paper
   describes.  This is the one implementation of address-space collapse;
   ExciseProcess and every transfer engine build their wire messages
   from it. *)
let to_rimas t =
  let chunks = ref [] and layout = ref [] and cursor = ref 0 in
  let emit_chunk range content =
    chunks := { Memory_object.range; content } :: !chunks
  in
  List.iter
    (fun (run : Address_space.image_run) ->
      match run with
      | Address_space.Img_zero _ -> ()
      | Address_space.Img_real { lo; run; homes = _ } ->
          let len = Page_run.length run * Page.size in
          let range = Vaddr.range !cursor (!cursor + len) in
          emit_chunk range (Memory_object.Data run);
          layout :=
            { Context.vaddr_lo = lo; vaddr_hi = lo + len; collapsed_lo = !cursor }
            :: !layout;
          cursor := !cursor + len
      | Address_space.Img_imag { lo; hi; segment_id; offset } ->
          let len = hi - lo in
          let range = Vaddr.range !cursor (!cursor + len) in
          let backing_port = backing_port_exn t ~segment_id in
          emit_chunk range (Memory_object.Iou { segment_id; backing_port; offset });
          layout :=
            { Context.vaddr_lo = lo; vaddr_hi = hi; collapsed_lo = !cursor }
            :: !layout;
          cursor := !cursor + len)
    t.mem;
  (* Merge adjacent Data chunks: each run of adjacent Data chunks is
     gathered and concatenated as views — O(parts), no page is copied. *)
  let flush group acc =
    match group with
    | [] -> acc
    | [ chunk ] -> chunk :: acc
    | _ ->
        let parts = List.rev group in
        let lo = (List.hd parts).Memory_object.range.Vaddr.lo in
        let hi = (List.hd group).Memory_object.range.Vaddr.hi in
        let data =
          Page_run.concat
            (List.map
               (fun c ->
                 match c.Memory_object.content with
                 | Memory_object.Data d -> d
                 | Memory_object.Iou _ | Memory_object.Digest_refs _ ->
                     assert false)
               parts)
        in
        { Memory_object.range = Vaddr.range lo hi; content = Data data }
        :: acc
  in
  let merged =
    let acc, group =
      List.fold_left
        (fun (acc, group) chunk ->
          match (group, chunk.Memory_object.content) with
          | ( ({ Memory_object.range = prev_range; _ } :: _ as g),
              Memory_object.Data _ )
            when prev_range.Vaddr.hi = chunk.Memory_object.range.Vaddr.lo ->
              (acc, chunk :: g)
          | _, Memory_object.Data _ -> (flush group acc, [ chunk ])
          | _, (Memory_object.Iou _ | Memory_object.Digest_refs _) ->
              (chunk :: flush group acc, []))
        ([], [])
        (List.rev !chunks)
    in
    List.rev (flush group acc)
  in
  (merged, List.rev !layout)

(* --- reading pages out of an image -------------------------------------- *)

let find_value t idx =
  let addr = Page.addr_of_index idx in
  List.find_map
    (fun (run : Address_space.image_run) ->
      match run with
      | Address_space.Img_real { lo; run; homes = _ }
        when lo <= addr && addr < lo + (Page_run.length run * Page.size) ->
          Some (Page_run.get run ((addr - lo) / Page.size))
      | Address_space.Img_real _ | Address_space.Img_zero _
      | Address_space.Img_imag _ ->
          None)
    t.mem

let real_ranges t =
  List.filter_map
    (fun (run : Address_space.image_run) ->
      match run with
      | Address_space.Img_real { lo; run; homes = _ } ->
          Some (lo, lo + (Page_run.length run * Page.size))
      | Address_space.Img_zero _ | Address_space.Img_imag _ -> None)
    t.mem

(* The pages of [lo, hi) as a shared view — O(log parts), no copying.
   Freeze-time residual and cold-tail computation lean on this: a range
   inside one real run costs nothing regardless of how many pages it
   spans. *)
let range_run t ~lo ~hi =
  match
    List.find_map
      (fun (run : Address_space.image_run) ->
        match run with
        | Address_space.Img_real { lo = rlo; run; homes = _ }
          when rlo <= lo && hi <= rlo + (Page_run.length run * Page.size) ->
            Some
              (Page_run.sub run
                 ~pos:((lo - rlo) / Page.size)
                 ~len:((hi - lo) / Page.size))
        | Address_space.Img_real _ | Address_space.Img_zero _
        | Address_space.Img_imag _ ->
            None)
      t.mem
  with
  | Some run -> run
  | None -> failwith "Proc_image.range_run: missing page"

(* --- freeze / restore ---------------------------------------------------- *)

let freeze t =
  { t with core = { t.core with Context.pcb = Pcb.copy t.core.Context.pcb } }

let restore host t =
  let space = Host.new_space host in
  Address_space.import_image space t.mem;
  let pager = Host.pager host in
  List.iter
    (fun (run : Address_space.image_run) ->
      match run with
      | Address_space.Img_zero _ | Address_space.Img_real _ -> ()
      | Address_space.Img_imag { lo; hi; segment_id; offset } ->
          Pager.register_segment pager
            ~space_id:(Address_space.id space)
            ~segment_id
            ~backing_port:(backing_port_exn t ~segment_id)
            ~offset ~len:(hi - lo) ~vaddr:lo)
    t.mem;
  let proc =
    Proc.reincarnate ~id:t.core.Context.proc_id ~name:t.core.Context.proc_name
      ~pcb:t.core.Context.pcb ~trace:t.core.Context.trace
      ~ports:t.core.Context.port_rights ~space
  in
  Working_set.import proc.Proc.working_set t.ws;
  List.iter
    (fun p -> Accent_util.Int_tbl.replace proc.Proc.written_log p ())
    t.dirty;
  proc
