open Accent_sim
open Accent_mem
open Accent_ipc

let estimate_ms (costs : Cost_model.t) core rimas =
  let data_pages = Memory_object.data_bytes rimas / Page.size in
  costs.insert_base_ms
  +. (costs.insert_per_amap_entry_ms
     *. float_of_int (Amap.entry_count core.Context.amap))
  +. (costs.insert_per_data_page_ms *. float_of_int data_pages)

(* Consume [len] bytes of collapsed content starting at offset [c],
   installing into [space] at [vaddr].  [chunks] is the full chunk list;
   chunk boundaries need not align with AMap range boundaries in either
   direction. *)
let install_content host space chunks ~c ~vaddr ~len =
  let pager = Host.pager host in
  let remaining = ref len and c = ref c and vaddr = ref vaddr in
  while !remaining > 0 do
    let chunk =
      match
        List.find_opt
          (fun ch ->
            ch.Memory_object.range.Vaddr.lo <= !c
            && !c < ch.Memory_object.range.Vaddr.hi)
          chunks
      with
      | Some ch -> ch
      | None -> failwith "Insert: RIMAS does not cover the AMap's content"
    in
    let chunk_lo = chunk.Memory_object.range.Vaddr.lo in
    let chunk_hi = chunk.Memory_object.range.Vaddr.hi in
    let piece = min (chunk_hi - !c) !remaining in
    (match chunk.Memory_object.content with
    | Memory_object.Data run ->
        (* chunk ranges and AMap ranges are both page-aligned, so the
           overlap is a whole number of pages *)
        let slice =
          Page_run.sub run ~pos:((!c - chunk_lo) / Page.size)
            ~len:(piece / Page.size)
        in
        Address_space.install_run ~segment:"rimas" space ~addr:!vaddr slice
          ~resident:true
    | Memory_object.Iou { segment_id; backing_port; offset } ->
        let seg_off = offset + (!c - chunk_lo) in
        Address_space.map_imaginary space
          (Vaddr.of_len !vaddr piece)
          ~segment_id ~offset:seg_off;
        Pager.register_segment pager ~space_id:(Address_space.id space)
          ~segment_id ~backing_port ~offset:seg_off ~len:piece ~vaddr:!vaddr
    | Memory_object.Digest_refs _ ->
        (* the migration layer resolves digest references back to Data
           before insertion; one reaching this deep is a protocol bug *)
        failwith "Insert: RIMAS contains an unresolved digest chunk");
    c := !c + piece;
    vaddr := !vaddr + piece;
    remaining := !remaining - piece
  done

let rebuild_space host core rimas =
  let space = Host.new_space host in
  let cursor = ref 0 in
  List.iter
    (fun (lo, hi, cls) ->
      match (cls : Accessibility.t) with
      | Real_zero_mem -> Address_space.validate_zero space (Vaddr.range lo hi)
      | Real_mem | Imag_mem ->
          install_content host space rimas ~c:!cursor ~vaddr:lo ~len:(hi - lo);
          cursor := !cursor + (hi - lo)
      | Bad_mem -> ())
    (Amap.ranges core.Context.amap);
  if !cursor <> Memory_object.total_bytes rimas then
    failwith "Insert: RIMAS size disagrees with AMap content";
  space

let insert host ~core ~rimas ~k =
  Memory_object.validate rimas;
  let cost = estimate_ms (Host.costs host) core rimas in
  ignore
    (Engine.schedule (Host.engine host) ~delay:(Time.ms cost) (fun () ->
         let space = rebuild_space host core rimas in
         let proc =
           Proc.reincarnate ~id:core.Context.proc_id
             ~name:core.Context.proc_name ~pcb:core.Context.pcb
             ~trace:core.Context.trace ~ports:core.Context.port_rights ~space
         in
         proc.Proc.pcb.Pcb.status <- Pcb.Ready;
         Host.adopt host proc;
         k proc))
