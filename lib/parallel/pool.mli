(** A reusable work pool over OCaml 5 domains.

    The model-based revision pipeline is embarrassingly parallel over
    models: packed enumeration sweeps disjoint mask ranges, distance
    reductions fold disjoint chunks of [Mod(T)], and the bench tables
    measure independent instances.  Model checking does not fan out:
    every candidate of a (T, P) pair is asked on the pair's one solver
    session, which no domain shares.  This pool gives those layers a
    shared set of worker domains without pulling in domainslib: plain
    [Domain] + [Mutex]/[Condition], a FIFO task queue, and batch
    submission where the submitting domain also executes tasks while it
    waits (so nested batches — an instance fanned across the pool whose
    enumeration fans again — cannot deadlock).

    {b Determinism contract.} Every combinator returns results slotted or
    reduced in submission order, so for the associative merges used by the
    engine (sorted-chunk concatenation, [min], [(+)], [(&&)], minimal-set
    union) the result is bit-identical for any job count, including the
    always-available sequential path [jobs = 1], which runs every task
    inline on the calling domain without touching the queue.

    {b Job-count policy.} [default_jobs] is, in order: the value forced by
    {!set_default_jobs} (the [revkb -j] flag), the [REVKB_JOBS]
    environment variable, then [Domain.recommended_domain_count ()].

    {b Instrumentation.} Task execution is wrapped in the [pool.task]
    span and counted on the [Revkb_obs] registry ([pool.tasks] /
    [pool.help_tasks] / [pool.inline_tasks] / [pool.batches]), so a
    [--stats] snapshot reports utilization and per-worker busy time.
    Pure bookkeeping: results are unchanged at every job count. *)

type t

(* lint: iface-ok test_parallel drives private pools; global builds one *)
val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (none when
    [jobs = 1]); the caller is the remaining worker during batches.
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

(* lint: iface-ok test_parallel, as create *)
val shutdown : t -> unit
(** Stop and join the workers.  Any batch must have completed; idempotent. *)

(* lint: iface-ok test_parallel's batch cases; every map runs through it *)
val run : t -> (unit -> unit) array -> unit
(** Execute a batch of tasks, returning when all have finished.  The
    calling domain executes queued tasks while it waits.  If a task
    raises, the batch still runs to completion and the first exception is
    re-raised in the caller. *)

(* lint: iface-ok test_parallel; map_list and map_ranges run it *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; results are slotted by input index. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val map_ranges : t -> lo:int -> hi:int -> (int -> int -> 'a) -> 'a array
(** Split [\[lo, hi)] into contiguous subranges (one at [jobs = 1],
    else four per job, for load balance, and at most one per element),
    apply [f l h] to each, and return the per-chunk results in
    ascending range order. *)

val parallel_for_reduce :
  t ->
  lo:int ->
  hi:int ->
  map:(int -> int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  'a ->
  'a
(** [parallel_for_reduce pool ~lo ~hi ~map ~reduce init]: chunked
    for-loop reduction — {!map_ranges} followed by an in-order left fold
    of the chunk results onto [init]. *)

(** {1 The process-wide pool} *)

(* lint: iface-ok test_parallel checks the job-count policy global reads *)
val default_jobs : unit -> int
(** Forced value ({!set_default_jobs}), else [REVKB_JOBS], else
    [Domain.recommended_domain_count ()]; always at least 1. *)

val set_default_jobs : int -> unit
(** Force the job count (the [-j] CLI flag).  Takes effect at the next
    {!global} call; values below 1 are clamped to 1. *)

val global : unit -> t
(** The lazily created process-wide pool, rebuilt if the default job
    count changed since the last call.  Do not change the job count while
    pool work is in flight. *)

(* lint: iface-ok the determinism suites under test/ pin job counts *)
val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the default job count forced to [n],
    restoring the previous policy afterwards — how the determinism
    suites compare [jobs = 1] against [jobs = n]. *)
