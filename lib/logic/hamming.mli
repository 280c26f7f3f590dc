(** Hamming-distance formulas: the paper's [EXA(k, X, Y, W)] and friends.

    [EXA(k,X,Y,W)] (Section 3.1) is a polynomial-size formula over two
    equal-length letter vectors [X], [Y] and fresh auxiliary letters [W]
    that is true exactly when the assignments to [X] and [Y] differ in
    exactly [k] positions.  The paper obtains it from a counting circuit;
    we build the standard ladder network
    [s_{i,j} <-> (s_{i-1,j} /\ ~d_i) \/ (s_{i-1,j-1} /\ d_i)] with
    [d_i <-> (x_i != y_i)], giving size O(|X| * k).

    The [_direct] variants avoid auxiliary letters at exponential cost in
    [|X|]; they implement the constant-size distance tests of the
    bounded-[P] constructions (Section 4) and serve as reference
    implementations in tests. *)

val exa : int -> Var.t list -> Var.t list -> Formula.t * Var.t list
(** [exa k xs ys] is [(EXA(k, xs, ys, ws), ws)].  The two vectors must
    have equal length [n]; when [k > n] the formula is [false] and no
    auxiliaries are created.  The auxiliary letters are fresh and
    functionally determined by [xs] and [ys] (the definitions are
    biconditionals), so conjoining [EXA] never changes the projection of a
    model set onto the original letters. *)

(* lint: iface-ok test_session and test_structures check exa against it *)
val exa_direct : int -> Var.t list -> Var.t list -> Formula.t
(** Same language, no auxiliaries: a disjunction over all [C(n,k)] choices
    of differing positions. *)

val dist_lt_direct :
  Var.t list * Var.t list -> Var.t list * Var.t list -> Formula.t
(** [dist_lt_direct (a, b) (c, d)]: Hamming distance of [(a,b)] strictly
    smaller than that of [(c,d)].  Auxiliary-free, exponential in the
    vector width — the [DIST(...) < DIST(...)] comparison of formula (14),
    intended for bounded widths. *)

val pointwise_diff_subset :
  Var.t list -> Var.t list -> Var.t list -> Var.t list -> Formula.t
(** The paper's schema
    [F_subseteq(S1,S2,S3,S4) = /\_j ((s1_j != s2_j) -> (s3_j != s4_j))]:
    the positions where [S1] and [S2] differ are a subset of those where
    [S3] and [S4] differ (Section 6). *)

val exa_totalizer : int -> Var.t list -> Var.t list -> Formula.t * Var.t list
(** Alternative [EXA] built from a totalizer (balanced-tree unary
    counter): the definitions compute a sorted unary output
    [s_1 >= s_2 >= ...] of the difference bits, and "exactly k" is
    [s_k /\ ~s_{k+1}].  Size O(n^2) with different constants than {!exa}
    — the two are benchmarked against each other (the paper only needs
    {e some} polynomial counting circuit, cf. its O(n log n) remark). *)

val dist_lt :
  Var.t list * Var.t list ->
  Var.t list * Var.t list ->
  Formula.t * Var.t list
(** Polynomial-size strict comparison
    [DIST(a, b) < DIST(c, d)] using two totalizers and a sorted-vector
    comparison (with fresh auxiliary letters).  Unlike
    {!dist_lt_direct}, this stays polynomial for unbounded widths — the
    matrix of formula (14) is polynomial; only its universal quantifier
    is not. *)
