(* CDCL solver in the MiniSat tradition.  The implementation notes below
   record the invariants that are easy to break:

   - assign.(v) is 0 when undefined, 1 when true, -1 when false.
   - A clause's first two literals are its watched literals.  When a literal
     becomes false, every clause watching it either finds a replacement
     watch, becomes unit (first literal enqueued), or is a conflict.
   - reason.(v) is the clause that propagated v, and that clause's first
     literal is the literal on v that was enqueued ("locked" clauses are
     exactly reasons and are never deleted by DB reduction).  Decisions,
     assumptions, units and unassigned variables have the solver's own
     [no_reason] sentinel, so an enqueue allocates nothing. *)

type clause = {
  lits : int array;
  learnt : bool;
  mutable activity : float;
  mutable deleted : bool;
}

type t = {
  mutable assign : int array; (* var -> 0 / 1 / -1 *)
  mutable level : int array;
  mutable reason : clause array;
  no_reason : clause; (* compared by [==] only, never mutated *)
  mutable watches : clause Vec.t array; (* indexed by literal *)
  mutable polarity : bool array; (* phase saving *)
  mutable seen : bool array;
  var_activity : float array ref;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  order : Heap.t;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
  mutable restarts : int;
  mutable last_model : bool array; (* capacity; the model is a prefix *)
  mutable model_len : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999

let create () =
  let activity = ref [||] in
  {
    assign = [||];
    level = [||];
    reason = [||];
    no_reason = { lits = [||]; learnt = false; activity = 0.0; deleted = true };
    watches = [||];
    polarity = [||];
    seen = [||];
    var_activity = activity;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    order = Heap.create activity;
    nvars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
    restarts = 0;
    last_model = [||];
    model_len = 0;
  }

let ok s = s.ok

let grow_arrays s n =
  let old = Array.length s.assign in
  if n > old then begin
    let cap = max n (max 16 (2 * old)) in
    let copy a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 old;
      a'
    in
    s.assign <- copy s.assign 0;
    s.level <- copy s.level (-1);
    s.reason <- copy s.reason s.no_reason;
    s.polarity <- copy s.polarity false;
    s.seen <- copy s.seen false;
    s.var_activity := copy !(s.var_activity) 0.0;
    let w = Array.length s.watches in
    if 2 * cap > w then begin
      let w' = Array.init (2 * cap) (fun i ->
          if i < w then s.watches.(i) else Vec.create ())
      in
      s.watches <- w'
    end
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  Heap.grow_to s.order s.nvars;
  Heap.insert s.order v;
  v

let ensure_nvars s n =
  while s.nvars < n do
    ignore (new_var s)
  done

let value_lit s l =
  let x = s.assign.(Lit.var l) in
  if Lit.is_pos l then x else -x

let decision_level s = Vec.size s.trail_lim

(* -- activity ---------------------------------------------------------- *)

let var_bump s v =
  let a = !(s.var_activity) in
  a.(v) <- a.(v) +. s.var_inc;
  if a.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      a.(i) <- a.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  Heap.update s.order v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

let clause_bump s c =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun c -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let clause_decay_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* -- assignment -------------------------------------------------------- *)

let enqueue s l reason =
  let v = Lit.var l in
  s.assign.(v) <- (if Lit.is_pos l then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.polarity.(v) <- Lit.is_pos l;
      s.assign.(v) <- 0;
      s.reason.(v) <- s.no_reason;
      Heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* -- propagation ------------------------------------------------------- *)

let attach s c =
  Vec.push s.watches.(Lit.neg c.lits.(0)) c;
  Vec.push s.watches.(Lit.neg c.lits.(1)) c

(* Propagate all enqueued facts; return the conflicting clause if any. *)
let propagate s =
  let confl = ref None in
  while Option.is_none !confl && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(p) in
    let n = Vec.size ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.deleted then () (* drop from watch list *)
      else begin
        (* Make sure the false literal (neg p) sits at index 1. *)
        let false_lit = Lit.neg p in
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if value_lit s first = 1 then begin
          (* Clause already satisfied: keep the watch. *)
          Vec.set ws !j c;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let len = Array.length c.lits in
          let k = ref 2 in
          while !k < len && value_lit s c.lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            (* Found replacement watch. *)
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- false_lit;
            Vec.push s.watches.(Lit.neg c.lits.(1)) c
          end
          else if value_lit s first = -1 then begin
            (* Conflict: copy the rest of the watch list and stop. *)
            Vec.set ws !j c;
            incr j;
            while !i < n do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done;
            confl := Some c;
            s.qhead <- Vec.size s.trail
          end
          else begin
            (* Unit: propagate first literal. *)
            Vec.set ws !j c;
            incr j;
            enqueue s first c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !confl

(* -- conflict analysis (first UIP) ------------------------------------- *)

let analyze s confl =
  let learnt = Vec.create () in
  Vec.push learnt 0 (* slot for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) (* -1 means: take all literals of the clause *) in
  let confl = ref confl in
  let index = ref (Vec.size s.trail - 1) in
  let btlevel = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c != s.no_reason) (* every expanded literal has a reason *);
    if c.learnt then clause_bump s c;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = Lit.var q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            var_bump s v;
            if s.level.(v) >= decision_level s then incr counter
            else begin
              Vec.push learnt q;
              if s.level.(v) > !btlevel then btlevel := s.level.(v)
            end
          end
        end)
      c.lits;
    (* Select next literal (on the current level) to expand. *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    let q = Vec.get s.trail !index in
    decr index;
    p := q;
    confl := s.reason.(Lit.var q);
    s.seen.(Lit.var q) <- false;
    decr counter;
    if !counter = 0 then continue := false
  done;
  Vec.set learnt 0 (Lit.neg !p);
  (* Clear the seen flags of the learnt tail. *)
  for i = 1 to Vec.size learnt - 1 do
    s.seen.(Lit.var (Vec.get learnt i)) <- false
  done;
  (Array.init (Vec.size learnt) (Vec.get learnt), !btlevel)

let record_learnt s lits =
  s.learned <- s.learned + 1;
  if Array.length lits = 1 then enqueue s lits.(0) s.no_reason
  else begin
    let c = { lits; learnt = true; activity = 0.0; deleted = false } in
    (* Watch the asserting literal and a literal from the backjump level so
       the watch invariant holds after the jump: find the literal with the
       highest level among lits.(1..) and swap it into slot 1. *)
    let best = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(Lit.var lits.(i)) > s.level.(Lit.var lits.(!best)) then
        best := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp;
    Vec.push s.learnts c;
    attach s c;
    clause_bump s c;
    enqueue s lits.(0) c
  end

(* -- clause database reduction ----------------------------------------- *)

let locked s c =
  s.reason.(Lit.var c.lits.(0)) == c && value_lit s c.lits.(0) = 1

let reduce_db s =
  let n = Vec.size s.learnts in
  if n > 0 then begin
    let arr = Array.init n (Vec.get s.learnts) in
    Array.sort (fun a b -> compare a.activity b.activity) arr;
    let limit = n / 2 in
    Array.iteri
      (fun i c ->
        if i < limit && (not (locked s c)) && Array.length c.lits > 2 then
          c.deleted <- true)
      arr;
    Vec.filter_in_place (fun c -> not c.deleted) s.learnts
    (* Watch lists drop deleted clauses lazily during propagation. *)
  end

(* -- adding clauses ----------------------------------------------------- *)

(* Sorted and unique, the order [List.sort_uniq compare] gives; without
   a tautology, the literals not yet false at level 0.  [None] for a
   tautology or a clause already true at level 0. *)
let simplify s lits =
  cancel_until s 0;
  let a = Array.of_list lits in
  (* Insertion sort: no comparison closure, and measured faster than
     [Array.sort Int.compare] on the benchmark's clauses.  Quadratic in
     the clause length: cheap for the alphabet-sized clauses revision
     builds, slow only for a DIMACS clause of many thousands. *)
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  (* Drop duplicates in place; the [n] distinct literals are a prefix. *)
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if !n = 0 || a.(!n - 1) <> a.(i) then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  let n = !n in
  if n > 0 then ensure_nvars s (Lit.var a.(n - 1) + 1);
  (* Sorted and unique, a complementary pair (2v, 2v+1) is adjacent. *)
  let taut = ref false in
  for i = 0 to n - 1 do
    if (i + 1 < n && a.(i) lxor a.(i + 1) = 1) || value_lit s a.(i) = 1 then
      taut := true
  done;
  if !taut then None
  else begin
    let k = ref 0 in
    for i = 0 to n - 1 do
      if value_lit s a.(i) <> -1 then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Some (if !k = Array.length a then a else Array.sub a 0 !k)
  end

let add_clause s lits =
  if s.ok then
    match simplify s lits with
    | None -> ()
    | Some [||] -> s.ok <- false
    | Some [| l |] ->
        enqueue s l s.no_reason;
        if not (Option.is_none (propagate s)) then s.ok <- false
    | Some arr ->
        let c =
          { lits = arr; learnt = false; activity = 0.0; deleted = false }
        in
        Vec.push s.clauses c;
        attach s c

(* -- search ------------------------------------------------------------- *)

(* Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... *)
let luby y x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

type search_result = Sat | Unsat | Restart

(* The unassigned variable of highest activity, or -1 when none is left. *)
let pick_branch s =
  let rec go () =
    match Heap.pop_max s.order with
    | None -> -1
    | Some v -> if s.assign.(v) = 0 then v else go ()
  in
  go ()

let search s assumptions conflict_budget =
  let conflict_count = ref 0 in
  let result = ref None in
  while Option.is_none !result do
    match propagate s with
    | Some confl ->
        s.conflicts <- s.conflicts + 1;
        incr conflict_count;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          let learnt, btlevel = analyze s confl in
          cancel_until s btlevel;
          record_learnt s learnt;
          var_decay_activity s;
          clause_decay_activity s
        end
    | None ->
        if !conflict_count >= conflict_budget then begin
          cancel_until s 0;
          result := Some Restart
        end
        else begin
          if
            Vec.size s.learnts - Vec.size s.trail
            > 4000 + (2 * Vec.size s.clauses)
          then reduce_db s;
          (* Assumption literals occupy the first decision levels. *)
          if decision_level s < Array.length assumptions then begin
            let p = assumptions.(decision_level s) in
            match value_lit s p with
            | 1 ->
                (* Already true: open a dummy level to keep alignment. *)
                Vec.push s.trail_lim (Vec.size s.trail)
            | -1 -> result := Some Unsat
            | _ ->
                Vec.push s.trail_lim (Vec.size s.trail);
                enqueue s p s.no_reason
          end
          else begin
            match pick_branch s with
            | -1 -> result := Some Sat
            | v ->
                s.decisions <- s.decisions + 1;
                Vec.push s.trail_lim (Vec.size s.trail);
                let l = Lit.of_var ~neg:(not s.polarity.(v)) v in
                enqueue s l s.no_reason
          end
        end
  done;
  match !result with Some r -> r | None -> assert false

(* Registry mirror of the per-solver counters: each [solve] flushes the
   deltas it produced, so one snapshot aggregates every solver instance
   in the process (enumeration spawns many).  The private mutable
   fields stay the hot-path storage — propagation never touches an
   Atomic. *)
module Obs = Revkb_obs.Obs

let c_solves = Obs.counter "sat.solves"
let c_decisions = Obs.counter "sat.decisions"
let c_propagations = Obs.counter "sat.propagations"
let c_conflicts = Obs.counter "sat.conflicts"
let c_learned = Obs.counter "sat.learned"
let c_restarts = Obs.counter "sat.restarts"

let solve_inner assumptions s =
  if not s.ok then false
  else begin
    cancel_until s 0;
    List.iter (fun l -> ensure_nvars s (Lit.var l + 1)) assumptions;
    let assumptions = Array.of_list assumptions in
    let rec loop restarts =
      let budget = int_of_float (100.0 *. luby 2.0 restarts) in
      match search s assumptions budget with
      | Sat -> true
      | Unsat -> false
      | Restart ->
          s.restarts <- s.restarts + 1;
          loop (restarts + 1)
    in
    let sat = loop 0 in
    if sat then begin
      (* The model array is reused across solves and grows with the
         variable arrays; [model_len] marks the current model's prefix. *)
      if Array.length s.last_model < s.nvars then
        s.last_model <- Array.make (Array.length s.assign) false;
      for v = 0 to s.nvars - 1 do
        s.last_model.(v) <- s.assign.(v) = 1
      done;
      s.model_len <- s.nvars
    end;
    cancel_until s 0;
    sat
  end

let solve ?(assumptions = []) s =
  let d0 = s.decisions
  and p0 = s.propagations
  and c0 = s.conflicts
  and l0 = s.learned
  and r0 = s.restarts in
  let sat = Obs.with_span "sat.solve" (fun () -> solve_inner assumptions s) in
  Obs.incr c_solves;
  Obs.add c_decisions (s.decisions - d0);
  Obs.add c_propagations (s.propagations - p0);
  Obs.add c_conflicts (s.conflicts - c0);
  Obs.add c_learned (s.learned - l0);
  Obs.add c_restarts (s.restarts - r0);
  sat

let value s l =
  let v = Lit.var l in
  let b = v < s.model_len && s.last_model.(v) in
  if Lit.is_pos l then b else not b

let model s = Array.sub s.last_model 0 s.model_len

(* Defined last so the shared field names never shadow the solver's own
   mutable counters above. *)
type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
}

let stats (s : t) : stats =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    learned = s.learned;
    restarts = s.restarts;
  }
