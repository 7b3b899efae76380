(* Address spaces and accessibility maps: validation, classification, the
   fault-resolution state machine, eviction integration and accounting. *)
open Accent_mem

let page_bytes n = n * Page.size

let fresh ?(frames = 64) () =
  let mem = Phys_mem.create ~frames in
  let disk = Paging_disk.create () in
  let space = Address_space.create ~id:1 ~mem ~disk in
  Phys_mem.set_evict_handler mem (fun ~space_id ~page data ~dirty ->
      (* single-space worlds in these tests *)
      assert (space_id = 1);
      Address_space.evict_page space page data ~dirty);
  (space, mem, disk)

let acc = Alcotest.testable Accessibility.pp Accessibility.equal

let test_empty_space () =
  let space, _, _ = fresh () in
  Alcotest.check acc "unvalidated is BadMem" Accessibility.Bad_mem
    (Address_space.classify space 0);
  Alcotest.(check int) "no memory" 0 (Address_space.total_bytes space)

let test_validate_zero () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 4));
  Alcotest.check acc "RealZeroMem" Accessibility.Real_zero_mem
    (Address_space.classify space 100);
  Alcotest.(check int) "zero bytes" (page_bytes 4)
    (Address_space.zero_bytes space);
  Alcotest.(check int) "total" (page_bytes 4) (Address_space.total_bytes space);
  Alcotest.(check int) "no real yet" 0 (Address_space.real_bytes space)

let test_validate_rejects_overlap () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 4));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Address_space.validate_zero: range already validated")
    (fun () ->
      Address_space.validate_zero space (Vaddr.of_len (page_bytes 2) (page_bytes 4)))

let test_validate_rejects_unaligned () =
  let space, _, _ = fresh () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Address_space.validate_zero: range not page-aligned")
    (fun () -> Address_space.validate_zero space (Vaddr.range 100 800))

let test_install_bytes () =
  let space, _, _ = fresh () in
  let data = Bytes.make (page_bytes 3) 'd' in
  Address_space.install_bytes space ~addr:(page_bytes 10) data ~resident:false;
  Alcotest.check acc "RealMem" Accessibility.Real_mem
    (Address_space.classify space (page_bytes 10));
  Alcotest.(check int) "real bytes" (page_bytes 3)
    (Address_space.real_bytes space);
  Alcotest.(check int) "not resident" 0 (Address_space.resident_bytes space);
  match Address_space.page_data space 10 with
  | Some page -> Alcotest.(check char) "content" 'd' (Bytes.get page 0)
  | None -> Alcotest.fail "page should be materialised"

let test_install_partial_page_padded () =
  let space, _, _ = fresh () in
  Address_space.install_bytes space ~addr:0 (Bytes.make 700 'x') ~resident:true;
  Alcotest.(check int) "rounded to 2 pages" (page_bytes 2)
    (Address_space.real_bytes space);
  match Address_space.page_data space 1 with
  | Some page ->
      Alcotest.(check char) "data prefix" 'x' (Bytes.get page 0);
      Alcotest.(check char) "zero padding" '\000' (Bytes.get page 300)
  | None -> Alcotest.fail "second page missing"

let test_zero_fault_resolution () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 2));
  (match Address_space.presence_of_page space 0 with
  | Address_space.Zero_pending -> ()
  | _ -> Alcotest.fail "expected Zero_pending");
  Address_space.resolve_zero_fault space 0;
  (match Address_space.presence_of_page space 0 with
  | Address_space.Resident _ -> ()
  | _ -> Alcotest.fail "expected Resident after fill");
  Alcotest.check acc "now RealMem" Accessibility.Real_mem
    (Address_space.classify space 0);
  Alcotest.(check int) "zero shrank" (page_bytes 1)
    (Address_space.zero_bytes space);
  Alcotest.(check int) "real grew" (page_bytes 1)
    (Address_space.real_bytes space);
  (* the touched page is all zeros *)
  match Address_space.page_data space 0 with
  | Some page -> Alcotest.(check bool) "zero-filled" true (Page.is_zero page)
  | None -> Alcotest.fail "page missing"

let test_zero_fault_rejects_wrong_state () =
  let space, _, _ = fresh () in
  Address_space.install_bytes space ~addr:0 (Bytes.make 512 'x') ~resident:true;
  Alcotest.check_raises "not zero-pending"
    (Invalid_argument "Address_space.resolve_zero_fault: page not zero-pending")
    (fun () -> Address_space.resolve_zero_fault space 0)

let test_disk_fault_resolution () =
  let space, _, disk = fresh () in
  Address_space.install_bytes space ~addr:0 (Bytes.make 512 'q') ~resident:false;
  (* a never-touched install is a cold extent: on disk, but no block *)
  (match Address_space.presence_of_page space 0 with
  | Address_space.Paged_out -> ()
  | _ -> Alcotest.fail "expected Paged_out");
  Alcotest.(check int) "no block allocated" 0 (Paging_disk.blocks_in_use disk);
  Address_space.resolve_disk_fault space 0;
  (match Address_space.presence_of_page space 0 with
  | Address_space.Resident _ -> ()
  | _ -> Alcotest.fail "expected Resident");
  Alcotest.(check int) "block freed on page-in" 0
    (Paging_disk.blocks_in_use disk);
  match Address_space.page_data space 0 with
  | Some page -> Alcotest.(check char) "content survives" 'q' (Bytes.get page 0)
  | None -> Alcotest.fail "page missing"

let test_eviction_roundtrip () =
  (* 2 frames, 3 resident installs: the LRU page must land on disk and read
     back intact through a disk fault *)
  let space, mem, disk = fresh ~frames:2 () in
  Address_space.install_bytes space ~addr:0 (Bytes.make 512 'a') ~resident:true;
  Address_space.install_bytes space ~addr:512 (Bytes.make 512 'b')
    ~resident:true;
  Address_space.install_bytes space ~addr:1024 (Bytes.make 512 'c')
    ~resident:true;
  Alcotest.(check int) "one eviction" 1 (Phys_mem.evictions mem);
  Alcotest.(check int) "evicted page on disk" 1 (Paging_disk.blocks_in_use disk);
  (match Address_space.presence_of_page space 0 with
  | Address_space.Paged_out -> ()
  | _ -> Alcotest.fail "page 0 should be on disk");
  (* still RealMem, and contents intact *)
  Alcotest.check acc "still RealMem" Accessibility.Real_mem
    (Address_space.classify space 0);
  match Address_space.page_data space 0 with
  | Some page -> Alcotest.(check char) "contents" 'a' (Bytes.get page 0)
  | None -> Alcotest.fail "page missing"

let test_imaginary_mapping () =
  let space, _, _ = fresh () in
  Address_space.map_imaginary space
    (Vaddr.of_len (page_bytes 4) (page_bytes 4))
    ~segment_id:9 ~offset:0;
  Alcotest.check acc "ImagMem" Accessibility.Imag_mem
    (Address_space.classify space (page_bytes 5));
  (match Address_space.presence_of_page space 5 with
  | Address_space.Imaginary_pending { segment_id; offset } ->
      Alcotest.(check int) "segment" 9 segment_id;
      Alcotest.(check int) "offset maps linearly" (page_bytes 1) offset
  | _ -> Alcotest.fail "expected Imaginary_pending");
  Alcotest.(check int) "imag bytes" (page_bytes 4)
    (Address_space.imag_bytes space);
  Alcotest.(check (list (pair int int))) "segments" [ (9, page_bytes 4) ]
    (Address_space.imag_segments space)

let test_imaginary_fault_resolution () =
  let space, _, _ = fresh () in
  Address_space.map_imaginary space (Vaddr.of_len 0 (page_bytes 2))
    ~segment_id:3 ~offset:(page_bytes 10);
  let data = Page.pattern ~tag:1 0 in
  Address_space.resolve_imaginary_fault space 0 (Page.of_bytes data);
  Alcotest.check acc "fetched page is RealMem" Accessibility.Real_mem
    (Address_space.classify space 0);
  Alcotest.(check int) "segment shrank" (page_bytes 1)
    (Address_space.imag_bytes space);
  match Address_space.page_data space 0 with
  | Some page -> Alcotest.(check bool) "contents" true (Bytes.equal page data)
  | None -> Alcotest.fail "page missing"

let test_touch_tracking () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 8));
  List.iter
    (fun idx ->
      Alcotest.(check bool) "zero-pending is not resident" false
        (Address_space.reference space idx))
    [ 0; 3; 0 ];
  Alcotest.(check int) "distinct touched" 2 (Address_space.touched_pages space);
  Address_space.resolve_zero_fault space 3;
  Alcotest.(check bool) "resident after the fault" true
    (Address_space.reference space 3);
  Alcotest.(check int) "still two" 2 (Address_space.touched_pages space)

(* Two spaces share one frame pool behind a host-style evict handler:
   each space's resident set stays ascending, its count equal to the
   set's length, through installs, evictions, a disk fault, a write and
   the other space's destruction. *)
let test_resident_set_per_space () =
  let mem = Phys_mem.create ~frames:6 and disk = Paging_disk.create () in
  let spaces = Hashtbl.create 2 in
  let mk id =
    let space = Address_space.create ~id ~mem ~disk in
    Hashtbl.replace spaces id space;
    space
  in
  let a = mk 1 and b = mk 2 in
  Phys_mem.set_evict_handler mem (fun ~space_id ~page data ~dirty ->
      Address_space.evict_page
        (Hashtbl.find spaces space_id)
        page data ~dirty);
  let install space idx =
    Address_space.install_bytes space ~addr:(page_bytes idx)
      (Bytes.make Page.size (Char.chr (65 + (idx mod 26))))
      ~resident:true
  in
  let check name space expected =
    let pages = List.map fst (Address_space.resident_pages space) in
    Alcotest.(check (list int)) (name ^ ": resident set") expected pages;
    Alcotest.(check int) (name ^ ": count = length") (List.length pages)
      (Address_space.resident_page_count space)
  in
  List.iter (install a) [ 12; 10; 11 ];
  List.iter (install b) [ 21; 20 ];
  check "installed a" a [ 10; 11; 12 ];
  check "installed b" b [ 20; 21 ];
  (* three more frames for b: the pool evicts a's two oldest pages *)
  List.iter (install b) [ 24; 22; 23 ];
  Alcotest.(check int) "two evictions" 2 (Phys_mem.evictions mem);
  check "a after eviction" a [ 11 ];
  check "b after eviction" b [ 20; 21; 22; 23; 24 ];
  (* a reference keeps a's page; faulting another back in evicts b's
     oldest *)
  Alcotest.(check bool) "resident" true (Address_space.reference a 11);
  Address_space.resolve_disk_fault a 12;
  check "a after disk fault" a [ 11; 12 ];
  check "b after disk fault" b [ 20; 22; 23; 24 ];
  Address_space.write_page a 11 (Page.pattern_value ~tag:9 11);
  check "a after write" a [ 11; 12 ];
  Alcotest.(check int) "frames = both sets" 6 (Phys_mem.in_use mem);
  Address_space.destroy a;
  check "a destroyed" a [];
  check "b untouched" b [ 20; 22; 23; 24 ];
  Alcotest.(check int) "frames = b's set" 4 (Phys_mem.in_use mem)

let test_region_and_segment_counts () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 2));
  Address_space.install_bytes ~segment:"code" space ~addr:(page_bytes 2)
    (Bytes.make 512 'x') ~resident:false;
  Address_space.install_bytes ~segment:"file" space ~addr:(page_bytes 4)
    (Bytes.make 512 'y') ~resident:false;
  (* zero | real | gap(bad) | real -> 3 regions *)
  Alcotest.(check int) "regions" 3 (Address_space.region_count space);
  Alcotest.(check int) "segments" 2 (Address_space.vm_segment_count space)

(* A label counts once however many runs carry it, the default label of
   unlabelled installs included, and an imported image is one segment
   whatever its run count. *)
let test_segment_labels_count_once () =
  let space, mem, disk = fresh () in
  let install ?segment page =
    Address_space.install_bytes ?segment space ~addr:(page_bytes page)
      (Bytes.make 512 'x') ~resident:false
  in
  install ~segment:"code" 0;
  install ~segment:"code" 2;
  install ~segment:"data" 4;
  install ~segment:"code" 6;
  Alcotest.(check int) "repeated label" 2
    (Address_space.vm_segment_count space);
  install 8;
  install 10;
  Alcotest.(check int) "unlabelled runs" 3
    (Address_space.vm_segment_count space);
  let copy = Address_space.create ~id:2 ~mem ~disk in
  Address_space.import_image copy (Address_space.export_image space);
  Alcotest.(check int) "image runs" 6 (Address_space.region_count copy);
  Alcotest.(check int) "imported image" 1
    (Address_space.vm_segment_count copy)

let test_destroy_releases_everything () =
  let space, mem, disk = fresh () in
  Address_space.install_bytes space ~addr:0 (Bytes.make (page_bytes 2) 'x')
    ~resident:true;
  Address_space.install_bytes space ~addr:(page_bytes 4)
    (Bytes.make (page_bytes 2) 'y') ~resident:false;
  Address_space.destroy space;
  Alcotest.(check int) "frames freed" 0 (Phys_mem.in_use mem);
  Alcotest.(check int) "blocks freed" 0 (Paging_disk.blocks_in_use disk);
  Alcotest.(check int) "empty" 0 (Address_space.total_bytes space)

(* --- AMap --- *)

let test_amap_of_space () =
  let space, _, _ = fresh () in
  Address_space.validate_zero space (Vaddr.of_len 0 (page_bytes 2));
  Address_space.install_bytes space ~addr:(page_bytes 2)
    (Bytes.make (page_bytes 2) 'x') ~resident:true;
  Address_space.map_imaginary space
    (Vaddr.of_len (page_bytes 4) (page_bytes 2))
    ~segment_id:1 ~offset:0;
  let amap = Address_space.build_amap space in
  Alcotest.check acc "zero range" Accessibility.Real_zero_mem
    (Amap.classify amap 0);
  Alcotest.check acc "real range" Accessibility.Real_mem
    (Amap.classify amap (page_bytes 2));
  Alcotest.check acc "imag range" Accessibility.Imag_mem
    (Amap.classify amap (page_bytes 5));
  Alcotest.check acc "beyond is bad" Accessibility.Bad_mem
    (Amap.classify amap (page_bytes 6));
  Alcotest.(check int) "entries" 3 (Amap.entry_count amap);
  Alcotest.(check int) "bytes of zero" (page_bytes 2)
    (Amap.bytes_of amap Accessibility.Real_zero_mem);
  Alcotest.(check int) "validated total" (page_bytes 6)
    (Amap.total_validated amap);
  Alcotest.(check int) "wire size" (16 + (3 * 12)) (Amap.wire_size amap)

let test_amap_rejects_overlap () =
  Alcotest.check_raises "overlapping ranges"
    (Invalid_argument "Amap.of_ranges: overlapping ranges") (fun () ->
      ignore
        (Amap.of_ranges
           [
             (0, 1024, Accessibility.Real_mem);
             (512, 2048, Accessibility.Real_zero_mem);
           ]))

let test_amap_ranges_of () =
  let amap =
    Amap.of_ranges
      [
        (0, 512, Accessibility.Real_mem);
        (512, 1024, Accessibility.Real_zero_mem);
        (2048, 4096, Accessibility.Real_mem);
      ]
  in
  Alcotest.(check (list (pair int int)))
    "real ranges"
    [ (0, 512); (2048, 4096) ]
    (Amap.ranges_of amap Accessibility.Real_mem)

(* qcheck: random space construction keeps the byte accounting identity
   real + zero + imag = total *)
let prop_accounting_identity =
  QCheck.Test.make ~count:100 ~name:"real+zero+imag = total after random ops"
    QCheck.(
      make
        Gen.(
          list_size (int_range 0 20)
            (triple (int_range 0 60) (int_range 1 8) (int_range 0 2))))
    (fun ops ->
      let space, _, _ = fresh ~frames:256 () in
      List.iter
        (fun (page, len, kind) ->
          let range = Vaddr.of_len (page_bytes page) (page_bytes len) in
          try
            match kind with
            | 0 -> Address_space.validate_zero space range
            | 1 ->
                Address_space.install_bytes space ~addr:(page_bytes page)
                  (Bytes.make (page_bytes len) 'r')
                  ~resident:(len mod 2 = 0)
            | _ ->
                Address_space.map_imaginary space range ~segment_id:1
                  ~offset:(page_bytes page)
          with Invalid_argument _ -> (* overlaps are rejected; fine *) ())
        ops;
      Address_space.real_bytes space
      + Address_space.zero_bytes space
      + Address_space.imag_bytes space
      = Address_space.total_bytes space)

let test_promotion_on_write () =
  let space, _, _ = fresh () in
  let v = Page.pattern_value ~tag:6 0 in
  Address_space.install_values space ~addr:0 [| v |] ~resident:true;
  (match Address_space.page_value space 0 with
  | Some before -> Alcotest.(check bool) "symbolic before the write" true
      (Page.is_symbolic before)
  | None -> Alcotest.fail "page missing");
  (* a write promotes the page to a Literal with the new contents *)
  let data = Page.to_bytes v in
  Bytes.set data 0 'W';
  Address_space.write_page space 0 (Page.of_bytes data);
  match Address_space.page_value space 0 with
  | Some after ->
      Alcotest.(check bool) "literal after the write" false
        (Page.is_symbolic after);
      Alcotest.(check char) "write landed" 'W'
        (Bytes.get (Page.to_bytes after) 0);
      Alcotest.(check bool) "rest of the page preserved" true
        (Bytes.equal data (Page.to_bytes after));
      Alcotest.(check bool) "no longer equal to the original" false
        (Page.equal_value v after)
  | None -> Alcotest.fail "page vanished"

let suite =
  ( "address_space",
    [
      Alcotest.test_case "empty space" `Quick test_empty_space;
      Alcotest.test_case "validate zero" `Quick test_validate_zero;
      Alcotest.test_case "rejects overlap" `Quick test_validate_rejects_overlap;
      Alcotest.test_case "rejects unaligned" `Quick
        test_validate_rejects_unaligned;
      Alcotest.test_case "install bytes" `Quick test_install_bytes;
      Alcotest.test_case "partial page padded" `Quick
        test_install_partial_page_padded;
      Alcotest.test_case "zero fault" `Quick test_zero_fault_resolution;
      Alcotest.test_case "zero fault wrong state" `Quick
        test_zero_fault_rejects_wrong_state;
      Alcotest.test_case "disk fault" `Quick test_disk_fault_resolution;
      Alcotest.test_case "eviction roundtrip" `Quick test_eviction_roundtrip;
      Alcotest.test_case "imaginary mapping" `Quick test_imaginary_mapping;
      Alcotest.test_case "imaginary fault" `Quick
        test_imaginary_fault_resolution;
      Alcotest.test_case "touch tracking" `Quick test_touch_tracking;
      Alcotest.test_case "resident set per space" `Quick
        test_resident_set_per_space;
      Alcotest.test_case "region/segment counts" `Quick
        test_region_and_segment_counts;
      Alcotest.test_case "segment labels count once" `Quick
        test_segment_labels_count_once;
      Alcotest.test_case "destroy releases" `Quick
        test_destroy_releases_everything;
      Alcotest.test_case "amap of space" `Quick test_amap_of_space;
      Alcotest.test_case "amap rejects overlap" `Quick test_amap_rejects_overlap;
      Alcotest.test_case "amap ranges_of" `Quick test_amap_ranges_of;
      Alcotest.test_case "promotion on write" `Quick test_promotion_on_write;
      QCheck_alcotest.to_alcotest prop_accounting_identity;
    ] )
