type t = int

let compare = Int.compare
let equal = Int.equal

(* The intern table is process-global and interning happens inside pool
   tasks (compact constructions rename letters, EXA builds counters), so
   every access that can touch the table goes through one mutex.  Ids for
   a given name are first-come-first-served: parallel phases can assign
   different ids across runs, which is why nothing user-visible may
   depend on id order — printing and alphabets speak names. *)
let intern_mutex = Mutex.create ()

(* lint: domain-safe every read and write below holds intern_mutex *)
let table : (string, int) Hashtbl.t = Hashtbl.create 256

(* lint: domain-safe guarded by intern_mutex (see table above) *)
let names : string ref array ref = ref (Array.init 16 (fun _ -> ref ""))

(* lint: domain-safe guarded by intern_mutex (see table above) *)
let next = ref 0

let name_slot i =
  let cap = Array.length !names in
  if i >= cap then begin
    let arr = Array.init (max (i + 1) (2 * cap)) (fun _ -> ref "") in
    Array.blit !names 0 arr 0 cap;
    names := arr
  end;
  !names.(i)

let named s =
  Mutex.lock intern_mutex;
  let v =
    match Hashtbl.find_opt table s with
    | Some v -> v
    | None ->
        let v = !next in
        incr next;
        (name_slot v) := s;
        Hashtbl.add table s v;
        v
  in
  Mutex.unlock intern_mutex;
  v

(* lint: domain-safe fresh holds intern_mutex around the whole
   probe-and-increment loop *)
let gensym = ref 0

let fresh ?(prefix = "_w") () =
  Mutex.lock intern_mutex;
  let rec go () =
    let s = Printf.sprintf "%s%d" prefix !gensym in
    incr gensym;
    if Hashtbl.mem table s then go ()
    else begin
      let v = !next in
      incr next;
      (name_slot v) := s;
      Hashtbl.add table s v;
      v
    end
  in
  let v = go () in
  Mutex.unlock intern_mutex;
  v

let name v = !(name_slot v)
let copy_of ~suffix v = named (name v ^ suffix)
let pp ppf v = Format.pp_print_string ppf (name v)

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let set_of_list l = Set.of_list l

let pp_set ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp)
    (Set.elements s)
