type status = Ready | Running | Blocked | Terminated | Excised

type t = {
  mutable status : status;
  mutable priority : int;
  mutable pc : int;
  tag : int;
  microstate_bytes : int;
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable migrations : int;
}

let create ?(priority = 0) ?(microstate_bytes = 1024) ~tag () =
  {
    status = Ready;
    priority;
    pc = 0;
    tag;
    microstate_bytes;
    faults_zero = 0;
    faults_disk = 0;
    faults_imag = 0;
    migrations = 0;
  }

(* The image is a pure function of (tag, size), so a PCB carries the
   two ints and the bytes exist only while a checksum reads them. *)
let microstate t =
  let bytes = Bytes.create t.microstate_bytes in
  let state = ref ((t.tag * 2654435761) lor 1) in
  for i = 0 to t.microstate_bytes - 1 do
    state := ((!state * 0x9E3779B9) + 0x7F4A7C15) land max_int;
    Bytes.set bytes i (Char.chr ((!state lsr 24) land 0xFF))
  done;
  bytes

let copy t = { t with status = t.status }
let size_bytes t = t.microstate_bytes
let checksum t = Accent_mem.Page.checksum (microstate t)
