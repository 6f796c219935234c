(** Specialized EF-game solver for unary words (c^p vs c^q).

    Over a single letter, the structure 𝔄_{c^p} is isomorphic to
    ({0, …, p}, +|≤p, 0, 1): factors are determined by their lengths and
    every concatenation pattern is an additive equation. This solver runs
    the ∀∃ search of {!Game} in that arithmetic representation — no
    string allocation anywhere on the hot path — with

    - positions as arena entries of (left-length, right-length) pairs
      (the per-domain scratch of {!Packed}), memoized locally on packed
      int keys and in a shared {!Cache} on {!Position.unary_key};
    - {e forced-reply pruning}: when Spoiler's move a participates in an
      additive pattern with two already-played entries (a = x + u,
      x = a + u, or x = a + a), triple-consistency of the partial
      isomorphism pins Duplicator's reply to a single value (or to none,
      refuting the move immediately), so the candidate scan collapses
      from O(q) to O(1). This is exact: every other candidate would fail
      [Partial_iso.extension_ok];
    - dominance pruning of Spoiler moves that repeat a played length on
      the same side (the reply is forced and the position unchanged);
    - an exact closed form for the last round.

    Verdicts agree with {!Game.decide} on every unary instance (checked
    against the string-based oracle in test/seed_oracle.ml). *)

val solve :
  ?cache:Cache.t ->
  ?store_depth:int ->
  ?limit:int ->
  ?budget:int ->
  p:int ->
  q:int ->
  init:(int * int) list ->
  int ->
  bool option * int * int
(** [solve ~p ~q ~init k]: can Duplicator win [k] more rounds of the game
    on c^p vs c^q from the position given by the played [init] pairs of
    lengths? Requires [p, q ≥ 0] with [p + q ≥ 1]. When one side is ε
    the letter constant is defined on the other side only, so the root
    is no partial isomorphism: the answer is [(Some false, 0, 0)], with
    no node and no table access, as {!Game.decide} gives it. The root is
    settled before any search state is built: an invalid [init] gives
    [(Some false, 0, 0)], and [k] ≤ 1 (the closed form) or a root
    answered by [cache] returns with one node and no memo entries.
    [limit] is the Duplicator candidate width
    ([max_int], the default, is the full search; with a finite limit,
    [Some true] stays sound and [Some false] only means the truncated
    search failed). [store_depth] bounds the position depth (played
    pairs) at which the shared [cache] is consulted and written — deeper
    nodes use only the solve-local memo. Depth gating is a pure
    time/space trade-off: within one solve the local memo already
    deduplicates, and across solves only shallow positions are ever
    re-reachable, so verdicts are unaffected. Returns
    [(result, nodes, memo_entries)]; [result] is [None] when the node
    [budget] is exhausted. *)
