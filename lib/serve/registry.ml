(* The named-KB registry behind [revkb serve].

   An entry owns the KB's presentation, its handle (the conjunction, its
   letters, and a satisfiability decided at most once per epoch), a
   monotonic epoch, and two lazily built acceleration structures: a
   pooled incremental SAT session with the KB asserted once (so every
   query after the first reuses it and the solver's learned clauses)
   and an optional compiled ROBDD for entail/count-heavy traffic.
   Any content change bumps the epoch, builds a new handle and drops
   both structures; the epoch is part of every serve-cache key, so a
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
  mutable session : Session.t option;
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

let session e =
  match e.session with
  | Some s ->
      Obs.incr c_session_reuse;
      s
  | None ->
      Obs.incr c_session_builds;
      let s = Session.create ~vars:(Var.Set.elements (Kb.vars e.kb)) () in
      Session.assert_always s (Kb.formula e.kb);
      e.session <- Some s;
      s

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
