(* Bounded LRU with lazy recency stamps.

   A hash table maps keys to (value, stamp); a FIFO queue holds
   (key, stamp) touch records.  Touching a key pushes a fresh record
   and bumps the table stamp — no linked-list surgery on the hot path.
   Eviction pops queue records until one's stamp matches the table
   (records invalidated by later touches are skipped), which is
   amortized O(1) per touch.  The queue is compacted when it outgrows
   the live set by 8x so a hit-heavy workload cannot grow it without
   bound. *)

type ('k, 'v) t = {
  cap : int;
  table : ('k, 'v * int) Hashtbl.t;
  queue : ('k * int) Queue.t;
  mutable clock : int;
  on_evict : 'k -> 'v -> unit;
}

let create ?(on_evict = fun _ _ -> ()) cap =
  if cap < 1 then invalid_arg "Lru.create: cap must be >= 1";
  {
    cap;
    table = Hashtbl.create (2 * cap);
    queue = Queue.create ();
    clock = 0;
    on_evict;
  }

let length t = Hashtbl.length t.table
let touch t k =
  t.clock <- t.clock + 1;
  Queue.push (k, t.clock) t.queue;
  t.clock

let compact t =
  if Queue.length t.queue > 8 * t.cap then begin
    let live = Queue.create () in
    Queue.iter
      (fun (k, stamp) ->
        match Hashtbl.find_opt t.table k with
        | Some (_, s) when s = stamp -> Queue.push (k, stamp) live
        | _ -> ())
      t.queue;
    Queue.clear t.queue;
    Queue.transfer live t.queue
  end

let rec evict_one t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some (k, stamp) -> (
      match Hashtbl.find_opt t.table k with
      | Some (v, s) when s = stamp ->
          Hashtbl.remove t.table k;
          t.on_evict k v
      | _ -> evict_one t (* superseded by a later touch *))

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some (v, _) ->
      let stamp = touch t k in
      Hashtbl.replace t.table k (v, stamp);
      compact t;
      Some v

let add t k v =
  (if not (Hashtbl.mem t.table k) then
     while Hashtbl.length t.table >= t.cap do
       evict_one t
     done);
  let stamp = touch t k in
  Hashtbl.replace t.table k (v, stamp);
  compact t

