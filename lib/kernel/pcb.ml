type status = Ready | Running | Blocked | Terminated | Excised

type t = {
  mutable status : status;
  mutable pc : int;
  mutable faults_zero : int;
  mutable faults_disk : int;
  mutable faults_imag : int;
  mutable migrations : int;
}

let create () =
  {
    status = Ready;
    pc = 0;
    faults_zero = 0;
    faults_disk = 0;
    faults_imag = 0;
    migrations = 0;
  }

let copy t = { t with status = t.status }
