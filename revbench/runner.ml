(* Replays whole passes of a workload and keeps, for every operation,
   its fastest and slowest timing over the passes.  Every pass starts
   from the same program state -- fresh set-up, then an untimed full
   major collection -- so operation [k] does the same work each time
   and its fastest timing is its cost with the least interference from
   the host. *)

module Obs = Revkb_obs.Obs
module W = Workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Counters whose per-pass totals depend only on the inputs: the work
   fingerprint later changes may cite. *)
let fingerprint_counters =
  [
    "sat.solves";
    "sat.conflicts";
    "sem.encode.clauses";
    "enum.sweep_codes";
    "bdd.nodes.live";
    "check.cegar_iters";
    "serve.cache.hits";
    "serve.cache.misses";
    "serve.cache.evictions";
    "serve.session.builds";
  ]

let counter (s : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

type t = {
  w : W.t;
  fastest : int array;  (** ns, per operation *)
  slowest : int array;
  bad : int array;  (** calls of [k] that raised, answered an error or changed answer *)
  first : Digest.t option array;  (** pass one's reply texts *)
  sizes : int option array;  (** pass one's revised sizes *)
  mutable passes : int;
  mutable setups : float list;  (** seconds per set-up *)
  mutable pass_ms : float list;  (** per pass, summed operation timings, newest first *)
  mutable fingerprints : (string * int) list list;  (** per pass, newest first *)
  mutable counters : (string * int) list;  (** the last pass's operations, by counter *)
  span_us : (string, int) Hashtbl.t;  (** summed over the passes' operations, by span *)
  setup_span_us : (string, int) Hashtbl.t;  (** summed over the set-ups, by span *)
  mutable minor_collections : int;  (** during calls *)
  mutable allocated_words : float;  (** by calls *)
  mutable covered_us : int;  (** union of attributed span time, when tracing *)
}

let create (w : W.t) =
  {
    w;
    fastest = Array.make w.ops max_int;
    slowest = Array.make w.ops 0;
    bad = Array.make w.ops 0;
    first = Array.make w.ops None;
    sizes = Array.make w.ops None;
    passes = 0;
    setups = [];
    pass_ms = [];
    fingerprints = [];
    counters = [];
    span_us = Hashtbl.create 16;
    setup_span_us = Hashtbl.create 16;
    minor_collections = 0;
    allocated_words = 0.;
    covered_us = 0;
  }

let add_spans table (s : Obs.snapshot) =
  List.iter
    (fun (name, (st : Obs.span_stat)) ->
      Hashtbl.replace table name
        (st.s_total_us + Option.value ~default:0 (Hashtbl.find_opt table name)))
    s.spans

(* Words the program allocated, and minor collections, read around each
   call so the benchmark's own bookkeeping is not counted. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let minor_collections () = (Gc.quick_stat ()).minor_collections

let timed_setup r =
  let t0 = now_ns () in
  r.w.setup ();
  r.setups <- (float_of_int (now_ns () - t0) /. 1e9) :: r.setups

(* Length of the union of the span intervals the workload attributes
   (µs).  Events come sorted by start time. *)
let covered (w : W.t) events =
  let lo, hi, acc =
    List.fold_left
      (fun ((lo, hi, acc) as st) (e : Obs.event) ->
        if w.envelope e.ev_name then st
        else
          let s = e.ev_start_us and f = e.ev_start_us + e.ev_dur_us in
          if s >= hi then (s, f, acc + (hi - lo)) else (lo, max hi f, acc))
      (0, 0, 0) events
  in
  acc + (hi - lo)

let record r k (reply : W.reply) =
  let digest = Digest.string reply.text in
  let same =
    match r.first.(k) with
    | None ->
        r.first.(k) <- Some digest;
        r.sizes.(k) <- reply.size;
        true
    | Some d -> Digest.equal d digest
  in
  if not (reply.ok && same) then r.bad.(k) <- r.bad.(k) + 1

(* One pass: its set-ups, then every operation once, in order.  With
   [tracing], each call's span events are read after it. *)
let pass r =
  let w = r.w in
  let s0 = Obs.snapshot () in
  for _ = 1 to w.setups_per_pass do
    timed_setup r
  done;
  Gc.full_major ();
  let s1 = Obs.snapshot () in
  let tracing = Obs.tracing () in
  let total = ref 0 in
  for k = 0 to w.ops - 1 do
    if tracing then Obs.clear_trace ();
    let words0 = allocated () and minors0 = minor_collections () in
    let t0 = now_ns () in
    let answered = match w.call k with () -> true | exception _ -> false in
    let ns = now_ns () - t0 in
    r.allocated_words <- r.allocated_words +. (allocated () -. words0);
    r.minor_collections <- r.minor_collections + (minor_collections () - minors0);
    total := !total + ns;
    if ns < r.fastest.(k) then r.fastest.(k) <- ns;
    if ns > r.slowest.(k) then r.slowest.(k) <- ns;
    if tracing then r.covered_us <- r.covered_us + covered w (Obs.trace_events ());
    if answered then record r k (w.reply k) else r.bad.(k) <- r.bad.(k) + 1
  done;
  if tracing then Obs.clear_trace ();
  let s2 = Obs.snapshot () in
  let ops = Obs.diff s2 s1 in
  r.passes <- r.passes + 1;
  r.pass_ms <- (float_of_int !total /. 1e6) :: r.pass_ms;
  r.fingerprints <- List.map (fun c -> (c, counter ops c)) fingerprint_counters :: r.fingerprints;
  r.counters <- ops.counters;
  add_spans r.span_us ops;
  add_spans r.setup_span_us (Obs.diff s1 s0)

let run r ~passes =
  for _ = 1 to passes do
    pass r
  done

(* Fastest of enough repetitions of [f] to cover 20 µs (a probe of a
   layer that takes microseconds), or of one run of a slower one. *)
let probe_ns f =
  let rec go reps best total =
    if total >= 20_000 || reps >= 200 then float_of_int best
    else
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (f ()));
      let ns = now_ns () - t0 in
      go (reps + 1) (min best ns) (total + ns)
  in
  go 0 max_int 0

(* -- estimators ------------------------------------------------------------ *)

(* Linear interpolation between closest ranks of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let sorted_fastest r =
  let a = Array.map float_of_int r.fastest in
  Array.sort compare a;
  a

(* Operations per second of one closed-loop client, each operation at
   its fastest timing. *)
let throughput r =
  float_of_int r.w.ops /. (Array.fold_left ( + ) 0 r.fastest |> float_of_int) *. 1e9

(* Median across operations of slowest / fastest timing: how much the
   host moved the timings within the run. *)
let spread r =
  let a = Array.init r.w.ops (fun k -> float_of_int r.slowest.(k) /. float_of_int (max 1 r.fastest.(k))) in
  Array.sort compare a;
  quantile a 0.5

let fingerprint r = match r.fingerprints with [] -> [] | fp :: _ -> fp
