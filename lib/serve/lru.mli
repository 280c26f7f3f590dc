(** A bounded least-recently-used map (the serve-tier revision cache).

    Constant-time touch via lazy recency stamps: hits and inserts push
    a stamp record instead of splicing a list, eviction skips stale
    records, and the record queue is compacted when it outgrows the
    live set.  Not thread-safe; the server confines it to the serving
    domain. *)

type ('k, 'v) t

val create : ?on_evict:('k -> 'v -> unit) -> int -> ('k, 'v) t
(** [create cap]: an empty cache evicting beyond [cap] live entries,
    least-recently-touched first.  [on_evict] fires once per evicted
    entry (not on {!remove_if} or overwrite).  Raises [Invalid_argument]
    when [cap < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, then evict down to capacity if needed. *)

val length : ('k, 'v) t -> int
(** Live entries (never exceeds capacity). *)

val remove_if : ('k, 'v) t -> ('k -> 'v -> bool) -> unit
(** Drop every entry the predicate holds of; [on_evict] does not fire. *)
