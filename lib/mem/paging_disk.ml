type block_id = int

type t = {
  blocks : (block_id, Page.value) Hashtbl.t;
  mutable next_id : int;
  mutable free_list : block_id list;
  freed : (block_id, unit) Hashtbl.t;
      (* mirrors [free_list]: blocks waiting for reuse.  Without it, a
         stale [free] of a block id that has since been recycled would
         silently push the id onto [free_list] twice and the allocator
         would hand the same block to two owners. *)
}

let create () =
  {
    blocks = Hashtbl.create 16;
    next_id = 0;
    free_list = [];
    freed = Hashtbl.create 64;
  }

let alloc t value =
  let id =
    match t.free_list with
    | id :: rest ->
        t.free_list <- rest;
        Hashtbl.remove t.freed id;
        id
    | [] ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id
  in
  Hashtbl.replace t.blocks id value;
  id

let find t id =
  match Hashtbl.find_opt t.blocks id with
  | Some value -> value
  | None ->
      if Hashtbl.mem t.freed id then
        invalid_arg "Paging_disk: block already freed"
      else invalid_arg "Paging_disk: unknown block"

let read t id = find t id

let write t id value =
  ignore (find t id);
  Hashtbl.replace t.blocks id value

let free t id =
  if Hashtbl.mem t.freed id then
    invalid_arg "Paging_disk.free: double free"
  else if not (Hashtbl.mem t.blocks id) then
    invalid_arg "Paging_disk.free: unknown block"
  else begin
    Hashtbl.remove t.blocks id;
    Hashtbl.replace t.freed id ();
    t.free_list <- id :: t.free_list
  end

let blocks_in_use t = Hashtbl.length t.blocks
