(** A transposition table for EF-game positions, shared between solver
    instances and across domains.

    The table is {e lock-free for reads}: buckets are [Atomic] heads of
    immutable chains, writers publish with compare-and-set, and readers
    never take a lock — exactly what the scheduler's worker domains need
    when a parallel scan shares one table (writes are rare once the
    table warms up).

    Entries are {e rounds-remaining-aware}. For a fixed position P the
    predicate "Duplicator wins k more rounds from P" is antitone in k, so
    each position stores just two frontiers:

    - [win]: the largest k at which a Duplicator win has been {e proved};
      a lookup at any k' ≤ win answers [true].
    - [lose]: the smallest k at which a Spoiler win has been proved; a
      lookup at any k' ≥ lose answers [false].

    Only exact verdicts are stored in those frontiers, so they are sound
    for both the full and the Duplicator-limited search (a limited-mode
    Duplicator win is still a genuine win; limited-mode failures must
    {e not} be stored — see {!store}).

    Budget-exhausted searches are recorded separately with their
    provenance (rounds, Duplicator width, node budget), and are only
    reusable by a search that is at most as strong: same rounds, width no
    larger, budget no larger. In particular an [Unknown]-at-budget entry
    is never reused at a larger budget. *)

type t

val create : ?log2_buckets:int -> unit -> t
(** Fresh table with [2^log2_buckets] buckets (default 16). The bucket
    array never resizes (resizing would race with lock-free readers);
    chains simply grow. *)

val lookup : t -> Position.key -> k:int -> bool option
(** Rounds-aware lookup; updates the hit/miss counters. *)

val store : t -> Position.key -> k:int -> bool -> unit
(** Record an exact verdict. Callers running a Duplicator-limited search
    must only store [true] results ([false] merely means the truncated
    candidate list failed, not that Spoiler wins). *)

val unknown_reusable : t -> Position.key -> k:int -> width:int -> budget:int -> bool
(** [unknown_reusable t key ~k ~width ~budget]: is a recorded
    budget-exhaustion at exactly [k] rounds valid evidence that the
    current search (Duplicator width [width], node budget [budget]) will
    also exhaust? True iff an entry exists with width' ≤ width and
    budget' ≥ budget: a weaker-or-equal search already failed on at least
    as many nodes. Uses [max_int] as the width of a full search. *)

val store_unknown : t -> Position.key -> k:int -> width:int -> budget:int -> unit
(** Record that the search at [k] rounds with the given Duplicator width
    exhausted [budget] nodes. *)

val fold :
  t -> init:'a -> f:('a -> Position.key -> win:int -> lose:int -> 'a) -> 'a
(** Fold over every entry's exact-verdict frontiers: [win] is the largest
    proven-Duplicator-win round count (-1 when none), [lose] the smallest
    proven-Spoiler-win round count ([max_int] when none). Budget-provenance
    [Unknown] records are deliberately not exposed — they are only valid
    relative to a width/budget pair and must not outlive the run that
    produced them (see {!Persist}). Safe to call concurrently with
    readers and writers; the result is a consistent-per-entry snapshot. *)

type stats = { hits : int; misses : int; stores : int; entries : int }

val stats : t -> stats
val reset_counters : t -> unit
val pp_stats : Format.formatter -> stats -> unit
