type status = Ready | Running | Blocked | Terminated | Excised

type t = {
  mutable status : status;
  mutable priority : int;
  mutable pc : int;
  microstate : bytes;
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable migrations : int;
}

let create ?(priority = 0) ?(microstate_bytes = 1024) ~tag () =
  let microstate = Bytes.create microstate_bytes in
  let state = ref ((tag * 2654435761) lor 1) in
  for i = 0 to microstate_bytes - 1 do
    state := ((!state * 0x9E3779B9) + 0x7F4A7C15) land max_int;
    Bytes.set microstate i (Char.chr ((!state lsr 24) land 0xFF))
  done;
  {
    status = Ready;
    priority;
    pc = 0;
    microstate;
    faults_zero = 0;
    faults_disk = 0;
    faults_imag = 0;
    migrations = 0;
  }

let copy t =
  {
    status = t.status;
    priority = t.priority;
    pc = t.pc;
    microstate = Bytes.copy t.microstate;
    faults_zero = t.faults_zero;
    faults_disk = t.faults_disk;
    faults_imag = t.faults_imag;
    migrations = t.migrations;
  }

let size_bytes t = Bytes.length t.microstate
let checksum t = Accent_mem.Page.checksum t.microstate
