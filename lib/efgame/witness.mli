(** Witness search over unary words (Lemma 3.4): minimal pairs p < q with
    [a^p ≡_k a^q], and ≡_k equivalence classes of initial segments.

    Scans run over the linearized (p, q) triangle through the
    work-stealing {!Scheduler} — pair granularity, no per-q barrier.
    Every pair with p + q ≥ 1 goes to the arithmetic solver
    ({!Unary.solve}) and never builds a word structure; an ε pair is
    refuted at its root on the letter constant, with no node and no
    table access. Only a^0 vs a^0 takes the general solver
    ({!Game.make}). With no [engine] the solver
    runs without a transposition table. Under a [Cached]/[Parallel]
    engine it reads and writes the shared table, so a table persisted by
    a previous run ({!Persist}) makes a repeated or resumed scan
    incremental. A pair is the unit of parallel work: each pair is
    decided on one domain, and [Parallel] spreads pairs, not moves,
    across domains. *)

type engine =
  | Cached of Cache.t
      (** transposition-table-backed search *)
  | Parallel of Cache.t * int
      (** like [Cached], but scans steal pair-granularity chunks of the
          (p, q) triangle across the given number of worker domains
          sharing the one table *)

type scan_outcome =
  | Found of int * int  (** the minimal pair within the scanned range *)
  | Exhausted of int  (** no pair with q ≤ bound; all verdicts were exact *)
  | Inconclusive of int * (int * int) list
      (** bound, plus the pairs on which the solver ran out of budget,
          sorted by (q, p) *)
  | Interrupted of int
      (** the scan was stopped (signal, deadline, {!Scheduler.request_stop})
          after completing this many pairs; no claim — not even minimality —
          is made about the space. Completed verdicts are in the engine's
          table and a resumed run re-derives the rest. *)

type scan_stats = {
  pairs : int;  (** pair verdicts computed (early exit skips the rest) *)
  nodes : int;  (** solver search nodes expanded, all engines *)
  chunks : int;  (** scheduler chunks claimed *)
  cache_hits : int;  (** transposition-table hits during this scan *)
  cache_misses : int;  (** and misses; both 0 with no engine *)
}

val scan :
  ?budget:int ->
  ?engine:engine ->
  ?range:int * int ->
  ?on_q:(int -> unit) ->
  ?on_tick:(completed:int -> unit) ->
  ?stop:(unit -> bool) ->
  k:int ->
  max_n:int ->
  unit ->
  scan_outcome * scan_stats
(** Exhaustive scan of all pairs 0 ≤ p < q ≤ [max_n] in (q, p) order
    (so the first hit minimizes the larger word). Each pair runs through
    the monotonicity prefilter first: ≡_k requires ≡_j for every j < k,
    and the low-round games refute most pairs at a fraction of the
    k-round cost. All skips rest on exact [Not_equiv] verdicts, so an
    [Exhausted] outcome is a sound exhaustive claim.

    When a pair is [Found] mid-scan, outstanding work at larger indices
    is cancelled via the scheduler's shrinkable limit; every smaller
    index still completes, so the reported pair is minimal among exact
    verdicts. Pair solves touch the shared table only at their root
    (position depth 0, see {!Unary.solve}): within a cold scan deeper
    entries are never re-reachable (keys embed the pair), while the
    pair-level verdicts are exactly what a warm restart replays
    against.

    [range (lo, hi)] restricts the scan to the half-open index window
    [lo, hi) of the linearized triangle (default: the whole triangle,
    [0, max_n·(max_n+1)/2)); [Invalid_argument] if the window falls
    outside it. This is the shard and incremental-frontier primitive:
    indices below [M·(M+1)/2] are exactly the pairs with q ≤ M, so a
    table carrying a proven bound M resumes with
    [range (M·(M+1)/2, total)], and a distributed scan hands each
    worker a disjoint window ({!Dist}). With a window set, the
    outcome's claims shrink to it: [Found] is the minimal pair
    {e within the window}, [Exhausted] says no pair {e in the window}
    (the reported bound is still [max_n] — combining windows back into
    a whole-triangle claim is the caller's bookkeeping).

    [on_q] is a progress callback invoked as the scan first reaches each
    new value of [q] (under work stealing, values may be skipped — the
    callback observes a nondecreasing sequence). [on_tick] is invoked by
    the inline worker between chunks with the number of pairs completed —
    the hook long-running frontier scans use for periodic table
    checkpoints ({!Persist.save}). [stop] is polled at item granularity;
    once it returns true the scan winds down cooperatively and the
    outcome is [Interrupted] — the signal/deadline hook for crash-safe
    checkpoint-then-exit. *)

val minimal_pair :
  ?budget:int ->
  ?engine:engine ->
  ?on_q:(int -> unit) ->
  k:int ->
  max_n:int ->
  unit ->
  scan_outcome
(** [scan] without the statistics. *)

val classes :
  ?budget:int -> ?engine:engine -> k:int -> max_n:int -> unit ->
  int list list option
(** ≡_k-classes of {a^0, …, a^max_n}, each sorted ascending, classes
    ordered by minimum. [None] when some comparison came back [Unknown].
    Under a [Parallel] engine the comparisons of each new word against
    the current representatives are fanned out through the scheduler; an
    exact [Equiv] cancels the remaining comparisons (at most one
    representative can match — ≡_k is an equivalence), which also makes
    the parallel path slightly more decisive on budget-starved runs: an
    exact match places the word even when a comparison against an
    earlier representative would have been [Unknown]. *)

val verify_pair :
  ?budget:int -> ?engine:engine -> k:int -> int -> int -> Game.verdict
(** [verify_pair ~k p q]: decide [a^p ≡_k a^q] with a full search, under
    the chosen engine's table if one is given. With or without a table
    the verdict is the same; only the speed differs. *)

val verify_pair_sound : ?budget:int -> ?width:int -> k:int -> int -> int -> Game.verdict
(** One-sided verification using the Duplicator-restricted search (default
    [width] 6): [Equiv] answers are sound; anything else is [Unknown]. For
    pairs beyond the full solver's reach. *)

val classes_words :
  ?budget:int -> ?engine:engine -> sigma:char list -> k:int -> max_len:int ->
  unit -> string list list option
(** ≡_k classes of all words over [sigma] up to [max_len] — the finite
    index underlying Theorem 3.2. [None] on budget exhaustion. Same
    engine/parallelism behaviour as {!classes}. *)

(** {1 Triangle indexing}

    The scan's linearization of the pair space, exposed for tests and
    for resume bookkeeping: [index_of_pair p q = q·(q−1)/2 + p] for
    0 ≤ p < q, and [pair_of_index] its inverse. Smaller index ⇔
    lexicographically earlier (q, p). *)

val index_of_pair : int -> int -> int
val pair_of_index : int -> int * int

val pair_key : int -> int -> Position.key
(** The table key of the pair (p, q)'s top-level verdict: the unary
    fast-path key for p ≥ 1, the general game's root key for ε pairs.
    Scans never store under an ε key (those roots are refuted before any
    table access), so {!table_verdict} answers for an ε pair only from
    a table some other writer filled. *)

val table_verdict : Cache.t -> k:int -> int -> int -> bool option
(** [table_verdict cache ~k p q]: the pair's ≡_k verdict as recorded in
    [cache] (rounds-aware: a win frontier ≥ k answers [Some true], a
    lose frontier ≤ k answers [Some false]), or [None] when the table
    has no exact verdict for it. Pure table read — never solves. The
    audit primitive ({!Dist.Audit}). *)
