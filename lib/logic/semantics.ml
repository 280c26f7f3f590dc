module S = Satsolver.Solver
module L = Satsolver.Lit
module Obs = Revkb_obs.Obs

(* Layer-wide instrumentation.  Counters are unconditional (one atomic
   add), so the session layer's economics — solver builds avoided,
   encodings reused, ladder probes answered by assumption flips — are
   always visible in a [--stats] snapshot or a [revkb trace]. *)
let c_env_builds = Obs.counter "sem.env.builds"
let c_clauses = Obs.counter "sem.encode.clauses"
let c_cache_hit = Obs.counter "sem.encode.cache_hit"
let c_reuse = Obs.counter "sem.session.reuse"
let c_probes = Obs.counter "sem.ladder.probes"

exception Enumeration_cap_exceeded = Limits.Enumeration_cap_exceeded

let cap_exceeded enumerator cap =
  raise (Enumeration_cap_exceeded { enumerator; cap })

type env = {
  solver : S.t;
  mutable var_map : L.t Var.Map.t;
  memo : (Formula.t, L.t) Hashtbl.t;
  mutable true_lit : L.t option;
}

let create () =
  Obs.incr c_env_builds;
  {
    solver = S.create ();
    var_map = Var.Map.empty;
    memo = Hashtbl.create 64;
    true_lit = None;
  }

let fresh_lit env = L.of_var (S.new_var env.solver)

let true_lit env =
  match env.true_lit with
  | Some l -> l
  | None ->
      let l = fresh_lit env in
      S.add_clause env.solver [ l ];
      env.true_lit <- Some l;
      l

let lit_of_var env x =
  match Var.Map.find_opt x env.var_map with
  | Some l -> l
  | None ->
      let l = fresh_lit env in
      env.var_map <- Var.Map.add x l env.var_map;
      l

let add env c =
  Obs.incr c_clauses;
  S.add_clause env.solver c

let rec encode env (f : Formula.t) =
  match f with
  | True -> true_lit env
  | False -> L.neg (true_lit env)
  | Var x -> lit_of_var env x
  | Not g -> L.neg (encode env g)
  | _ -> (
      match Hashtbl.find_opt env.memo f with
      | Some l ->
          Obs.incr c_cache_hit;
          l
      | None ->
          let l = encode_node env f in
          Hashtbl.add env.memo f l;
          l)

and encode_node env (f : Formula.t) =
  match f with
  | True | False | Var _ | Not _ -> assert false (* handled above *)
  | And gs ->
      let ls = List.map (encode env) gs in
      let x = fresh_lit env in
      List.iter (fun li -> add env [ L.neg x; li ]) ls;
      add env (x :: List.map L.neg ls);
      x
  | Or gs ->
      let ls = List.map (encode env) gs in
      let x = fresh_lit env in
      List.iter (fun li -> add env [ x; L.neg li ]) ls;
      add env (L.neg x :: ls);
      x
  | Imp (a, b) ->
      let la = encode env a and lb = encode env b in
      let x = fresh_lit env in
      add env [ L.neg x; L.neg la; lb ];
      add env [ x; la ];
      add env [ x; L.neg lb ];
      x
  | Iff (a, b) ->
      let la = encode env a and lb = encode env b in
      let x = fresh_lit env in
      add env [ L.neg x; L.neg la; lb ];
      add env [ L.neg x; la; L.neg lb ];
      add env [ x; la; lb ];
      add env [ x; L.neg la; L.neg lb ];
      x
  | Xor (a, b) ->
      let la = encode env a and lb = encode env b in
      let x = fresh_lit env in
      add env [ L.neg x; la; lb ];
      add env [ L.neg x; L.neg la; L.neg lb ];
      add env [ x; L.neg la; lb ];
      add env [ x; la; L.neg lb ];
      x

let is_literal : Formula.t -> bool = function
  | Var _ | Not (Var _) -> true
  | _ -> false

let assert_formula env (f : Formula.t) =
  (* Assert top-level conjuncts directly: fewer auxiliaries, and unit
     facts reach the solver as unit clauses.  A conjunct that is a
     clause already (a disjunction of literals) is added as that clause,
     with no auxiliary; the solver drops duplicate literals and
     tautologies. *)
  let rec go (f : Formula.t) =
    match f with
    | And gs -> List.iter go gs
    | Or gs when List.for_all is_literal gs ->
        add env (List.map (encode env) gs)
    | f -> add env [ encode env f ]
  in
  go f

let solve ?assumptions env = S.solve ?assumptions env.solver

let model_on env alphabet =
  List.fold_left
    (fun acc x ->
      if S.value env.solver (lit_of_var env x) then Var.Set.add x acc else acc)
    Var.Set.empty alphabet

let blocking_clause env alphabet m =
  List.map
    (fun x ->
      let l = lit_of_var env x in
      if Var.Set.mem x m then L.neg l else l)
    alphabet

let block env alphabet m = add env (blocking_clause env alphabet m)

(* Mask-level model readout and blocking, once for both mask
   representations: bit [i] is letter [i] of the alphabet. *)
let mask_on (type m) (module M : Mask.S with type t = m) env alpha : m =
  M.init alpha (fun i ->
      S.value env.solver (lit_of_var env (Interp_packed.letter alpha i)))

(* The clause excluding every model that agrees with [mask] on the bits
   set in [on] (by default, on the whole alphabet): one literal per
   selected letter, each false exactly where [mask] is. *)
let blocking_clause_mask (type m) (module M : Mask.S with type t = m) ?on env
    alpha (mask : m) =
  let selected i = match on with None -> true | Some o -> M.test o i in
  List.filter_map Fun.id
    (List.mapi
       (fun i x ->
         if not (selected i) then None
         else
           let l = lit_of_var env x in
           Some (if M.test mask i then L.neg l else l))
       (Interp_packed.letters alpha))

(* -- cardinality ladder -------------------------------------------------

   One sequential-counter encoding (Sinz-style, both directions) whose
   threshold outputs are plain solver literals: "at least j of the diff
   bits are set", for every j at once.  A distance probe is then a
   single assumption flip on an already-loaded solver, instead of a
   fresh [Hamming.exa k] Tseitin build per threshold. *)

module Ladder = struct
  type t = {
    ge : L.t array; (* ge.(j-1): at least j diff bits set *)
    width : int;
    tl : L.t; (* the env's true literal, for the trivial thresholds *)
  }

  let diff_lit env (a, b) =
    let d = fresh_lit env in
    add env [ L.neg d; a; b ];
    add env [ L.neg d; L.neg a; L.neg b ];
    add env [ d; L.neg a; b ];
    add env [ d; a; L.neg b ];
    d

  (* Full biconditional counter s_{i,j} <-> s_{i-1,j} \/ (d_i /\
     s_{i-1,j-1}).  Boundary cells are the env's true/false literal;
     [add] simplifies those clauses away (true_lit is unit at level 0),
     so no special-casing is needed here.  Size: n(n+1)/2 auxiliaries,
     at most 4 clauses each — O(n^2) clauses for all n+1 thresholds,
     versus O(n * k) for a single-threshold [Hamming.exa k]. *)
  let of_lits env ds =
    let ds = Array.of_list ds in
    let n = Array.length ds in
    let tl = true_lit env in
    let prev = Array.make (n + 1) (L.neg tl) in
    prev.(0) <- tl;
    for i = 1 to n do
      let cur = Array.make (n + 1) (L.neg tl) in
      cur.(0) <- tl;
      for j = 1 to i do
        let sij = fresh_lit env in
        let d = ds.(i - 1) in
        add env [ L.neg prev.(j); sij ];
        add env [ L.neg d; L.neg prev.(j - 1); sij ];
        add env [ L.neg sij; prev.(j); d ];
        add env [ L.neg sij; prev.(j); prev.(j - 1) ];
        cur.(j) <- sij
      done;
      Array.blit cur 0 prev 0 (n + 1)
    done;
    { ge = Array.init n (fun j -> prev.(j + 1)); width = n; tl }

  let of_pairs env pairs = of_lits env (List.map (diff_lit env) pairs)

  (* True iff at least [k] difference bits are set. *)
  let at_least t k =
    if k <= 0 then t.tl
    else if k > t.width then L.neg t.tl
    else t.ge.(k - 1)

  let at_most t k = L.neg (at_least t (k + 1))
  let exactly t k = [ at_least t k; at_most t k ]

  (* A pinnable comparison vector: the Y side of the distance is a row
     of otherwise-unconstrained selector literals, so one ladder serves
     every reference point N — pinning Y := N is an assumption list, not
     an encoding. *)
  type pinned = { lad : t; ys : L.t array; letters : Var.t array }

  let against env alphabet =
    let letters = Array.of_list alphabet in
    let ys = Array.map (fun _ -> fresh_lit env) letters in
    let ds =
      Array.to_list
        (Array.mapi
           (fun i x -> diff_lit env (lit_of_var env x, ys.(i)))
           letters)
    in
    { lad = of_lits env ds; ys; letters }

  let ladder p = p.lad

  let pin p n =
    Array.to_list
      (Array.mapi
         (fun i x -> if Var.Set.mem x n then p.ys.(i) else L.neg p.ys.(i))
         p.letters)

  let pin_mask (type m) (module M : Mask.S with type t = m) p (mask : m) =
    Array.to_list
      (Array.mapi
         (fun i _ -> if M.test mask i then p.ys.(i) else L.neg p.ys.(i))
         p.letters)
end

(* -- incremental sessions -----------------------------------------------

   A session keeps one solver (and its encode-once memo table) alive
   across many queries.  Queries activate formulas through assumptions
   on their Tseitin literals — the encoding is polarity-complete
   (biconditional), so assuming a root literal in either polarity is
   exact — and clause groups that must not outlive a query are tagged
   with a selector ("activation") literal: the clause [~sel \/ C] is
   inert unless [sel] is assumed, and [retire] (unit [~sel]) ends the
   group's life permanently. *)

module Session = struct
  type scope = L.t

  type stats = { queries : int; scopes_retired : int }

  type t = {
    env : env;
    mutable queries : int;
    mutable scopes_retired : int;
  }

  let make env = { env; queries = 0; scopes_retired = 0 }

  let create ?(vars = []) () =
    let env = create () in
    List.iter (fun x -> ignore (lit_of_var env x)) vars;
    make env

  let env s = s.env
  let stats s = { queries = s.queries; scopes_retired = s.scopes_retired }
  let declare s xs = List.iter (fun x -> ignore (lit_of_var s.env x)) xs
  (* Encoding a large asserted KB (a constructed revision) is a cost of
     its own, apart from the queries that follow: its own span. *)
  let assert_always s f =
    Obs.with_span "sem.assert" (fun () -> assert_formula s.env f)

  (* Assumption literals activating [f]: one per top-level conjunct, so
     unit facts stay unit assumptions and no root auxiliary is built for
     the conjunction itself.  Encoding is memoized — the second query on
     the same formula costs only the memo lookups. *)
  let premise s f =
    let rec go acc (f : Formula.t) =
      match f with
      | And gs -> List.fold_left go acc gs
      | f -> encode s.env f :: acc
    in
    List.rev (go [] f)

  let solve ?(scopes = []) ?(extra = []) s fs =
    s.queries <- s.queries + 1;
    if s.queries > 1 then Obs.incr c_reuse;
    let assumptions = List.concat_map (premise s) fs @ extra @ scopes in
    Obs.with_span "sem.query" (fun () -> solve ~assumptions s.env)

  (* Entailment inside the session: premises /\ ~q unsatisfiable.  The
     negated query is activated by assumption like everything else, so
     repeated entailment checks against one KB reuse its encodings and
     learned clauses — the serving tier's hot query path. *)
  let entails ?(premises = []) s q =
    not (solve s (premises @ [ Formula.not_ q ]))

  let model_on s alphabet = model_on s.env alphabet
  let mask_on m s alpha = mask_on m s.env alpha
  let new_scope s = fresh_lit s.env
  let scoped_clause s sel c = add s.env (L.neg sel :: c)

  let block s sel alphabet m =
    scoped_clause s sel (blocking_clause s.env alphabet m)

  let block_mask m ?on s sel alpha mask =
    scoped_clause s sel (blocking_clause_mask m ?on s.env alpha mask)

  let retire s sel =
    s.scopes_retired <- s.scopes_retired + 1;
    add s.env [ L.neg sel ]

  let with_retractable s k =
    let sel = new_scope s in
    Fun.protect ~finally:(fun () -> retire s sel) (fun () -> k sel)

  (* Distance probes: satisfiability of [fs] with at most [k] ladder
     diff bits set is one assumption flip. *)
  let within ?(assume = []) s fs lad k =
    Obs.incr c_probes;
    solve s ~extra:(Ladder.at_most lad k :: assume) fs

  let min_distance ?(assume = []) s fs lad =
    (* The unconstrained solve doubles as the satisfiability pre-check:
       [fs] is encoded exactly once, and when it is satisfiable the
       upward sweep below must terminate at or before the ladder
       width. *)
    if not (solve s ~extra:assume fs) then None
    else
      let rec probe k =
        if within ~assume s fs lad k then Some k else probe (k + 1)
      in
      probe 0

  let closer_than ?(assume = []) s fs lad d =
    d > 0 && within ~assume s fs lad (d - 1)

  (* Scoped model enumeration: blocking clauses are tagged with a fresh
     selector and retired afterwards, so one session can enumerate
     several formulas in turn without the blocking clauses of one
     poisoning the next. *)
  let models ?(cap = 1_000_000) s alphabet f =
    declare s alphabet;
    with_retractable s (fun scope ->
        let rec go acc n =
          if n > cap then cap_exceeded "models_sat" cap
          else if solve s ~scopes:[ scope ] [ f ] then begin
            let m = model_on s alphabet in
            block s scope alphabet m;
            go (m :: acc) (n + 1)
          end
          else List.rev acc
        in
        go [] 0)

  let masks (type m) (module M : Mask.S with type t = m) ?(cap = 1_000_000) s
      alpha f =
    if not (M.fits alpha) then
      invalid_arg
        (Printf.sprintf
           "Semantics.masks_sat: alphabet has %d letters, limit is %d for \
            one-word masks (the bit-shift bound lint rule R2 enforces; \
            use the wide engine Mask.Wide for larger alphabets)"
           (Interp_packed.size alpha) Interp_packed.max_letters);
    declare s (Interp_packed.letters alpha);
    with_retractable s (fun scope ->
        let rec go acc n =
          if n > cap then cap_exceeded "masks_sat" cap
          else if solve s ~scopes:[ scope ] [ f ] then begin
            let m = mask_on (module M) s alpha in
            block_mask (module M) s scope alpha m;
            go (m :: acc) (n + 1)
          end
          else M.normalize (Array.of_list acc)
        in
        go [] 0)

  (* Model count by the same walk, tallying instead of storing: no mask
     is retained, so counting costs one blocking clause per model and
     O(words) transient memory.  Raises [Invalid_argument] past the cap
     with the count so far, so the caller knows the scale it hit. *)
  let count_masks ?(cap = 1_000_000) s alpha fs =
    declare s (Interp_packed.letters alpha);
    with_retractable s (fun scope ->
        let rec go n =
          if n > cap then
            invalid_arg
              (Printf.sprintf
                 "Semantics.count_sat: more than %d models over %d letters \
                  (raise ~cap if walking a model set this size is intended)"
                 cap (Interp_packed.size alpha))
          else if solve s ~scopes:[ scope ] fs then begin
            block_mask (module Mask.Wide) s scope alpha
              (mask_on (module Mask.Wide) s alpha);
            go (n + 1)
          end
          else n
        in
        go 0)
end

let masks_sat m ?cap alpha f =
  let s = Session.create ~vars:(Interp_packed.letters alpha) () in
  Session.masks m ?cap s alpha f

let count_sat ?cap alpha f =
  let s = Session.create ~vars:(Interp_packed.letters alpha) () in
  Session.count_masks ?cap s alpha [ f ]

let is_sat_cdcl f =
  let env = create () in
  assert_formula env f;
  solve env

(* Fast path: formulas that are syntactically Horn / dual-Horn / Krom
   CNF are decided by the linear-time routines in {!Clausal} before a
   solver is ever created.  The structural check costs one traversal and
   fails over to CDCL on any other shape.  The cdcl counter completes
   the routing picture the fragment counters start: together they say
   what share of is_sat queries ever built a solver. *)
let route_cdcl = Obs.counter "sat.route.cdcl"

let is_sat f =
  match Clausal.decide_sat f with
  | Some (answer, route) ->
      Clausal.record_hit route;
      answer
  | None ->
      Obs.incr route_cdcl;
      is_sat_cdcl f

let is_valid f = not (is_sat (Formula.not_ f))

(* Entailment and equivalence route each direction through the clausal
   fast path first (an entailment query can still be a Horn CNF), and
   fall back to a session that both CDCL directions of [equiv] share:
   [a] and [b] are Tseitin-encoded once and the second direction is two
   assumption literals on the same solver. *)
let entails_in s a b =
  not (Session.solve s ~extra:[ L.neg (encode (Session.env s) b) ] [ a ])

let direction session a b =
  match Clausal.decide_sat (Formula.conj2 a (Formula.not_ b)) with
  | Some (answer, route) ->
      Clausal.record_hit route;
      not answer
  | None ->
      Obs.incr route_cdcl;
      entails_in (Lazy.force session) a b

let entails a b = direction (lazy (Session.make (create ()))) a b

let equiv a b =
  let session = lazy (Session.make (create ())) in
  direction session a b && direction session b a

let models_sat ?cap alphabet f =
  let s = Session.create ~vars:alphabet () in
  Session.models ?cap s alphabet f

let query_equivalent alphabet a b =
  (* One session for both enumerations: shared letter literals, shared
     subterm encodings, and each enumeration's blocking clauses retired
     before the next starts. *)
  let s = Session.create ~vars:alphabet () in
  let ma = Session.models s alphabet a and mb = Session.models s alphabet b in
  let norm = List.sort_uniq Var.Set.compare in
  let la = norm ma and lb = norm mb in
  List.length la = List.length lb && List.for_all2 Var.Set.equal la lb

(* Compile-once query route: build the KB's ROBDD one time, then answer
   entailment/equivalence queries in time linear in the diagrams.  The
   serving counterpart of the per-query SAT path above. *)
module Compiled = struct
  type t = {
    mgr : Bdd.manager;
    root : Bdd.node;
    base_letters : int; (* alphabet size at compile time *)
  }

  let compile ?order f =
    let letters =
      match order with
      | Some o -> o
      | None -> Bdd.force_order f
    in
    let mgr = Bdd.manager letters in
    (* A caller-supplied order may omit letters of [f]; appending them
       at the bottom keeps the given prefix intact. *)
    Bdd.extend mgr (Var.Set.elements (Formula.vars f));
    let root = Bdd.of_formula mgr f in
    { mgr; root; base_letters = List.length (Bdd.order mgr) }

  let manager t = t.mgr
  let root t = t.root
  let size t = Bdd.node_count t.root
  let order t = Bdd.order t.mgr
  let sat t = not (Bdd.is_false t.root)

  (* Queries may use letters outside the compiled alphabet; appending
     them at the bottom of the order leaves the KB's diagram intact. *)
  let import t q =
    Bdd.extend t.mgr (Var.Set.elements (Formula.vars q));
    Bdd.of_formula t.mgr q

  let entails t q =
    let qn = import t q in
    Bdd.is_false (Bdd.and_ t.root (Bdd.not_ qn))

  let equivalent t q = Bdd.equal t.root (import t q)
  let ask t m = Bdd.eval t.mgr t.root m

  let count t =
    let c = Bdd.sat_count t.mgr t.root in
    let extra = List.length (Bdd.order t.mgr) - t.base_letters in
    (* Letters imported after compilation are unconstrained in the KB,
       so each doubles the raw count; divide them back out. *)
    (* lint: shift-ok extra < alphabet size, and Bdd.sat_count above
       already rejected alphabets past Sys.int_size - 2 *)
    c / (1 lsl extra)
end
