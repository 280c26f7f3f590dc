(** A bounded record of models of one fixed theory, each a proof that
    the theory entails no query it falsifies.  One [int] column per
    letter, bit [i] model [i]'s value, evaluates a query on every model
    at once, one word operation per connective.  A letter no model makes
    true reads false: a model is read on every letter the theory
    constrains.  The oldest of at most [Sys.int_size - 1] models is
    replaced first.  Counters: [sem.record.hits], [sem.record.adds]. *)

type t

val create : unit -> t
(** An empty record; it allocates no column before its first model. *)

val entails : t -> Formula.t -> (unit -> Interp.t option) -> bool
(** [entails r q find]: [false], with no call of [find], when a
    recorded model falsifies [q]; else whether [find ()], a model of the
    theory falsifying [q] or none, is none.  A model found is recorded. *)
