type core = {
  proc_id : int;
  proc_name : string;
  pcb : Pcb.t;
  port_rights : Accent_ipc.Port.id list;
  amap : Accent_mem.Amap.t;
  trace : Trace.t;
}

let core_wire_bytes core =
  Cost_model.pcb_bytes
  + Accent_mem.Amap.wire_size core.amap
  + (8 * List.length core.port_rights)

type layout_run = { vaddr_lo : int; vaddr_hi : int; collapsed_lo : int }

let collapsed_of_vaddr runs vaddr =
  List.find_map
    (fun r ->
      if r.vaddr_lo <= vaddr && vaddr < r.vaddr_hi then
        Some (r.collapsed_lo + vaddr - r.vaddr_lo)
      else None)
    runs

let vaddr_of_collapsed runs offset =
  List.find_map
    (fun r ->
      let len = r.vaddr_hi - r.vaddr_lo in
      if r.collapsed_lo <= offset && offset < r.collapsed_lo + len then
        Some (r.vaddr_lo + offset - r.collapsed_lo)
      else None)
    runs
