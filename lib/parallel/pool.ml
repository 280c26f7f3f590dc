(* Domain-based work pool.  No domainslib: a FIFO queue guarded by one
   mutex, workers parked on a condition variable, and batch submission
   where the caller helps drain the queue.  The helping caller is what
   makes nested batches safe: a worker running a task that submits its
   own batch keeps executing queued tasks until its children finish, so
   there is always a domain making progress. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

(* Utilization accounting.  Counters are per-task, and tasks are
   chunk-sized by construction (map_ranges splits work into a few
   chunks per job), so the atomic adds are noise.  The pool.task span
   gives per-worker busy time: span aggregation is keyed by recording
   domain, so the snapshot separates each worker's share. *)
module Obs = Revkb_obs.Obs

let c_tasks = Obs.counter "pool.tasks"
let c_help_tasks = Obs.counter "pool.help_tasks"
let c_inline_tasks = Obs.counter "pool.inline_tasks"
let c_batches = Obs.counter "pool.batches"

let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec next () =
      if pool.stop then None
      else if Queue.is_empty pool.queue then begin
        Condition.wait pool.work_available pool.mutex;
        next ()
      end
      else Some (Queue.pop pool.queue)
    in
    let task = next () in
    Mutex.unlock pool.mutex;
    match task with
    | None -> ()
    | Some f ->
        Obs.incr c_tasks;
        Obs.with_span "pool.task" f;
        loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* One batch: a countdown of unfinished tasks plus a condition the caller
   waits on.  Each task decrements under the pool mutex, which also
   publishes its result writes to the caller (mutex release/acquire pairs
   give the needed happens-before). *)
let run pool tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if pool.jobs = 1 || n = 1 then
    Array.iter
      (fun f ->
        Obs.incr c_inline_tasks;
        Obs.with_span "pool.task" f)
      tasks
  else begin
    Obs.incr c_batches;
    let remaining = ref n in
    let batch_done = Condition.create () in
    let failure = ref None in
    let wrap f () =
      (* lint: exn-ok pool boundary: the first task exception (whatever
         it is) is captured and re-raised in the submitting domain *)
      (try f ()
       with e ->
         Mutex.lock pool.mutex;
         if !failure = None then failure := Some e;
         Mutex.unlock pool.mutex);
      Mutex.lock pool.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    Array.iter (fun f -> Queue.push (wrap f) pool.queue) tasks;
    Condition.broadcast pool.work_available;
    (* Help: run queued tasks (ours or another batch's — any progress is
       progress) until every task of this batch has completed. *)
    let rec help () =
      if !remaining > 0 then begin
        (if Queue.is_empty pool.queue then
           Condition.wait batch_done pool.mutex
         else begin
           let f = Queue.pop pool.queue in
           Mutex.unlock pool.mutex;
           Obs.incr c_tasks;
           Obs.incr c_help_tasks;
           Obs.with_span "pool.task" f;
           Mutex.lock pool.mutex
         end);
        help ()
      end
    in
    help ();
    Mutex.unlock pool.mutex;
    match !failure with Some e -> raise e | None -> ()
  end

let map_array pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run pool (Array.init n (fun i () -> out.(i) <- Some (f arr.(i))));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list pool f l = Array.to_list (map_array pool f (Array.of_list l))

let map_ranges pool ?chunks ~lo ~hi f =
  if hi <= lo then [||]
  else begin
    let len = hi - lo in
    let chunks =
      match chunks with
      | Some c -> max 1 (min c len)
      | None -> if pool.jobs = 1 then 1 else min len (4 * pool.jobs)
    in
    map_array pool
      (fun k -> f (lo + (len * k / chunks)) (lo + (len * (k + 1) / chunks)))
      (Array.init chunks (fun k -> k))
  end

(* Chunked map with a per-chunk context: [init] runs once per chunk on
   the executing domain, so expensive shared setup (a solver session, a
   distance prober) is amortized over the chunk instead of rebuilt per
   element.  Results are slotted by input index — [f] must give answers
   independent of the chunking for the determinism contract to hold,
   which every engine caller satisfies (the context only caches work,
   never changes answers). *)
let map_array_with pool ?chunks ~init f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let parts =
      map_ranges pool ?chunks ~lo:0 ~hi:n (fun l h ->
          let ctx = init () in
          Array.init (h - l) (fun i -> f ctx arr.(l + i)))
    in
    Array.concat (Array.to_list parts)
  end

let parallel_for_reduce pool ?chunks ~lo ~hi ~map ~reduce init =
  Array.fold_left
    (fun acc b -> reduce acc b)
    init
    (map_ranges pool ?chunks ~lo ~hi map)

(* -- process-wide pool ----------------------------------------------------- *)

(* lint: domain-safe written only by set_default_jobs from the
   driver before any batch runs; workers never touch it *)
let forced_jobs = ref None

let env_jobs () =
  match Sys.getenv_opt "REVKB_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_jobs () =
  match !forced_jobs with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

let set_default_jobs n = forced_jobs := Some (max 1 n)

(* lint: domain-safe every access is inside global_mutex (below) *)
let global_pool = ref None

let global_mutex = Mutex.create ()

let global () =
  Mutex.lock global_mutex;
  let j = default_jobs () in
  let pool =
    match !global_pool with
    | Some p when p.jobs = j -> p
    | prev ->
        (match prev with Some p -> shutdown p | None -> ());
        let p = create ~jobs:j in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mutex;
  pool

let () =
  at_exit (fun () ->
      match !global_pool with
      | Some p ->
          global_pool := None;
          shutdown p
      | None -> ())

let with_jobs n f =
  let saved = !forced_jobs in
  set_default_jobs n;
  Fun.protect ~finally:(fun () -> forced_jobs := saved) f
