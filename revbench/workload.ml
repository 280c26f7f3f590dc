(* A workload as the runner sees it: a fixed pass of [ops] operations
   against program state that [setup] builds.  Only [setup] and [call]
   are timed; everything else is the benchmark's own bookkeeping. *)

(* What one call returned, read after the call, outside its timing. *)
type reply = {
  ok : bool;  (** The program answered: no error reply. *)
  text : string;
      (** The answer in a form that must repeat exactly on every pass
          (it is compared, not checked: the oracle checks pass one). *)
  size : int option;
      (** [Formula.size] of the revised representation returned, if the
          operation returns one. *)
}

(* A layer timed by the benchmark around a public function of the
   program, on the input operation [k] gave it. *)
type probe = {
  metric : string;  (** Per-layer metric it feeds. *)
  ns : float;
  covers : bool;
      (** Counts toward the traced time the ledger attributes: false
          when spans inside the call already cover the layer. *)
}

type t = {
  name : string;
  ops : int;  (** Distinct operations in one pass. *)
  passes_per_10s : int;
      (** Passes a 10-second run replays: set with the run length, on
          the host the bounds were measured on; never read from a clock. *)
  setups_per_pass : int;  (** Timed set-ups before each pass (the last one serves it). *)
  setup : unit -> unit;
      (** What a user pays before the first answer, timed as [setup_s];
          for a serve workload it also builds the pass's fresh server. *)
  call : int -> unit;  (** Operation [k], through a public entry point. *)
  reply : int -> reply;  (** What the call just made to [k] returned. *)
  verify : unit -> int -> bool;
      (** Runs the oracle over every first-pass reply (after the timed
          passes); the result says whether operation [k] was right. *)
  probes : int -> probe list;
  envelope : string -> bool;
      (** Spans left out of the attributed union: ones enclosing a whole
          request, and ones inside a layer a covering probe times. *)
}
