(* The named-KB registry behind [revkb serve].

   An entry owns the KB's presentation, its handle (the conjunction, its
   letters, a satisfiability decided at most once per epoch, and T
   encoded once per epoch), a monotonic epoch, and two lazily built
   acceleration structures: a pooled incremental SAT session, a copy
   of the handle's solver (so every query after the first reuses it
   and its learned clauses), with the record of the models of T its
   answers found, and an optional compiled ROBDD for entail/count-heavy
   traffic.  Any content change bumps the epoch, builds a new handle and
   drops both structures; the epoch is part of every serve-cache key, so a
   bump invalidates all cached revisions of the entry at once without
   touching the cache. *)

open Logic
module Obs = Revkb_obs.Obs
module Session = Semantics.Session

let c_session_builds = Obs.counter "serve.session.builds"
let c_session_reuse = Obs.counter "serve.session.reuse"
let c_epoch_bumps = Obs.counter "serve.epoch.bumps"

type entry = {
  name : string;
  mutable theory : Theory.t;
  mutable kb : Kb.t;
  mutable epoch : int;
  mutable session : (Session.t * Witnesses.t) option;
  mutable compiled : Semantics.Compiled.t option;
}

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 16

let find (t : t) name = Hashtbl.find_opt t name

let size (t : t) = Hashtbl.length t

let set_content e theory =
  e.theory <- theory;
  e.kb <- Kb.of_theory theory;
  e.session <- None;
  e.compiled <- None

let load (t : t) name theory =
  match Hashtbl.find_opt t name with
  | Some e ->
      set_content e theory;
      e.epoch <- e.epoch + 1;
      Obs.incr c_epoch_bumps;
      e
  | None ->
      let e =
        {
          name;
          theory;
          kb = Kb.of_theory theory;
          epoch = 0;
          session = None;
          compiled = None;
        }
      in
      Hashtbl.replace t name e;
      e

let commit e theory =
  set_content e theory;
  e.epoch <- e.epoch + 1;
  Obs.incr c_epoch_bumps

(* The epoch's pooled session, and the models of T it found for a ¬q,
   read on T's letters: each answers every later q it falsifies. *)
let pooled e =
  match e.session with
  | Some p ->
      Obs.incr c_session_reuse;
      p
  | None ->
      Obs.incr c_session_builds;
      let p = (Kb.session e.kb, Witnesses.create ()) in
      e.session <- Some p;
      p

let session e = fst (pooled e)

let entails e q =
  let s, record = pooled e in
  Witnesses.entails record q (fun () ->
      if Session.solve s [ Formula.not_ q ] then
        let letters = Var.Set.elements (Kb.vars e.kb) in
        Some (Semantics.model_on (Session.env s) letters)
      else None)

let compiled e = e.compiled

let compile e =
  match e.compiled with
  | Some c -> c
  | None ->
      let c =
        Obs.with_span "serve.compile" (fun () ->
            Semantics.Compiled.compile (Kb.formula e.kb))
      in
      e.compiled <- Some c;
      c
