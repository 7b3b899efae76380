module Int_tbl = Accent_util.Int_tbl

type block_id = int

type t = {
  blocks : Page.value Int_tbl.t;
  mutable next_id : int;
  mutable free_list : block_id list;
  freed : unit Int_tbl.t;
      (* mirrors [free_list]: blocks waiting for reuse.  Without it, a
         stale [free] of a block id that has since been recycled would
         silently push the id onto [free_list] twice and the allocator
         would hand the same block to two owners. *)
}

let create () =
  {
    blocks = Int_tbl.create 16;
    next_id = 0;
    free_list = [];
    freed = Int_tbl.create 64;
  }

let alloc t value =
  let id =
    match t.free_list with
    | id :: rest ->
        t.free_list <- rest;
        Int_tbl.remove t.freed id;
        id
    | [] ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id
  in
  Int_tbl.replace t.blocks id value;
  id

let find t id =
  match Int_tbl.find_opt t.blocks id with
  | Some value -> value
  | None ->
      if Int_tbl.mem t.freed id then
        invalid_arg "Paging_disk: block already freed"
      else invalid_arg "Paging_disk: unknown block"

let read t id = find t id

let write t id value =
  ignore (find t id);
  Int_tbl.replace t.blocks id value

let free t id =
  if Int_tbl.mem t.freed id then
    invalid_arg "Paging_disk.free: double free"
  else if not (Int_tbl.mem t.blocks id) then
    invalid_arg "Paging_disk.free: unknown block"
  else begin
    Int_tbl.remove t.blocks id;
    Int_tbl.replace t.freed id ();
    t.free_list <- id :: t.free_list
  end

let blocks_in_use t = Int_tbl.length t.blocks
