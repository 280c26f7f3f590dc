(** In-source lint exemptions.

    Grammar (one comment per exemption, reason mandatory):

    {v (* lint: <tag> <reason> *) v}

    where [<tag>] is one of [domain-safe] (R1), [shift-ok] (R2),
    [obs-ok] (R3), [exn-ok] (R4), [iface-ok] (R5).  The comment
    suppresses findings of the tagged rule on its own line and on the
    next two lines, so it can sit either at the end of the
    offending line or directly above the offending item.  A [lint:]
    comment with an unknown tag or an empty reason never suppresses
    anything and is itself reported (rule R0): an exemption with no
    justification is a finding, not an escape hatch.  So is one that
    suppresses no finding ([stale:<tag>], also R0). *)

type entry = {
  tag : string;
  rule : Finding.rule option;  (** [None] when the tag is unknown *)
  reason : string;
  line : int;  (** line the comment ends on, 1-based *)
  mutable used : bool;
}

val scan : string -> entry list
(** All [lint:] comments of a source text, in order.  The scanner
    tracks nested comments, string literals and char literals, so a
    ["(* lint: ... *)"] inside a string is not an exemption. *)

val suppresses : entry list -> Finding.rule -> int -> bool
(** [suppresses entries rule line]: does some well-formed entry for
    [rule] cover [line]?  Marks the matching entry {!entry.used}. *)
