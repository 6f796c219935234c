(** Work-stealing execution of an indexed work space over Domains.

    Workers claim contiguous chunks of [0, total) from a single shared
    atomic index — the classic guided self-scheduling discipline: a claim
    takes a 1/(2·jobs) share of the {e remaining} space, clamped to
    [\[min_chunk, max_chunk\]], so early chunks are large (few atomic
    operations) and the tail is fine-grained (stragglers cannot strand a
    large chunk behind one slow item). Scan items have wildly
    heterogeneous cost; with one shared index no worker ever waits at a
    row boundary while another finishes a deep search.

    This is the only module that spawns domains: [jobs − 1]
    worker domains plus worker 0 inline on the calling domain. The unit of
    parallel work is a scan item (a word pair); a single [Game.decide]
    always runs on one domain.

    The limit is {e shrinkable}: [shrink_limit t i] abandons every index
    ≥ i that has not started, at item granularity (in-flight chunks
    re-check the limit before each item). Because the limit only ever
    decreases, when [run] returns every index below the final limit has
    been processed exactly once, and no index at or above it was started
    after the shrink — precisely the contract a minimal-witness scan
    needs for sound early exit.

    {b Supervision.} [run] is crash-tolerant: an item whose execution
    raises is retried ([retries] times, default 3) by being requeued for
    any worker to pick up, and a worker domain that dies outside an item
    (a crash in the claim path) is absorbed — the surviving workers
    drain its share, and if every domain dies the calling domain
    finishes the space itself, degraded to sequential. Only an item that
    fails {e every} attempt kills the run: its original exception is
    reraised after the rest of the space has drained, so one poisoned
    item cannot silently punch a hole in an exhaustive scan. Faults and
    crashes are counted ({!faults}, {!crashes}, plus [Obs] counters) and
    logged.

    {b Cooperative stop.} {!request_stop} (or [run]'s [stop] callback
    returning true) makes workers finish their current item and exit;
    unstarted work is left unclaimed. {!completed} stays exact, so a
    checkpoint taken after a stopped run captures precisely the finished
    prefix of the work — the resumable-state contract behind
    signal-driven checkpointing. *)

type t

val create :
  ?min_chunk:int ->
  ?max_chunk:int ->
  ?retries:int ->
  jobs:int ->
  total:int ->
  unit ->
  t
(** A scheduler over the index space [0, total). [min_chunk] defaults to
    1, [max_chunk] to 256 (capping chunk size keeps the inter-chunk
    [tick] callback of {!run} reasonably frequent even at the start of a
    large space). [retries] (default 3) bounds how many times a failing
    item is re-attempted before its exception is considered permanent. *)

val run : ?tick:(unit -> unit) -> ?stop:(unit -> bool) -> t -> (int -> unit) -> unit
(** [run t f] executes [f i] for every [i] below the (possibly shrinking)
    limit, over [jobs] worker domains (worker 0 runs inline on the
    calling domain). [f] must be domain-safe, and item-idempotent under
    retry: a failed [f i] may run again, on any worker. [tick] is
    invoked by worker 0 between its chunks — a single-writer hook for
    periodic work such as table checkpoints. [stop] is polled at chunk
    boundaries and before each item; once it returns true (or
    {!request_stop} is called) workers wind down without claiming new
    work. An item still failing after [retries] re-attempts reraises its
    original exception once the rest of the space has drained. A
    scheduler is single-shot: do not call [run] twice. *)

val shrink_limit : t -> int -> unit
(** Abandon all indices ≥ the given value (atomic monotone min;
    concurrent shrinks compose to the smallest). Indices already below
    the new limit are unaffected and will still be processed. *)

val request_stop : t -> unit
(** Ask every worker to wind down after its current item. Unlike
    {!shrink_limit} this is not about the answer's soundness — it is the
    cooperative-cancellation hook for signals and deadlines. *)

val stopped : t -> bool
(** Has a stop been requested (by {!request_stop} or [run]'s [stop])? *)

val limit : t -> int
(** Current limit: [total] until someone shrinks it. *)

val completed : t -> int
(** Number of items completed successfully so far. *)

val chunks : t -> int
(** Number of chunks claimed so far (scheduling-overhead telemetry). *)

val faults : t -> int
(** Item executions that raised (and were retried or abandoned). *)

val crashes : t -> int
(** Worker domains that died outside an item and were absorbed. *)
