(** The shard worker loop: claim → scan → persist → certify → release,
    until every shard in the directory is terminal or the driver stops.

    Failure handling is layered: transient I/O failures are retried
    in-lease with capped exponential backoff ({!Rt.Backoff.retry},
    renewing the heartbeat before each retry); a shard whose attempts
    are exhausted is {e re-enqueued} (partial outputs deleted, lease
    released, cross-worker retry counter bumped) for any worker to try
    afresh; a shard failing past [max_requeues] — or whose scan was
    Inconclusive, which retrying cannot fix — is {e quarantined} with a
    reason. A lease lost mid-scan abandons the shard uncertified: the
    reclaimer owns it now, and the work already done is harmless to
    repeat (deterministic scan, monotone merge).

    With [speculate] on, a worker with nothing claimable re-executes
    straggler-held shards (fresh lease, holder progressing far below
    the fleet's robust median rate — see {!Top}; at the drain tail,
    where too few holders remain for the robust cut, any shard held
    by someone else is backed up) under the shard's
    {e secondary} lease, into a separate [.spec.tbl]. The completion
    record's exclusive create is the single winner point: first record
    wins, the loser verifies the winner's content hash matches its own
    (deterministic scans) and discards its duplicate. Sound by DESIGN.md
    decision 10 — double execution is idempotent, so speculation can
    only ever waste cycles, never verdicts. *)

type config = {
  dir : string;
  ttl : float;  (** lease staleness threshold, seconds *)
  jobs : int;  (** solver domains per shard scan *)
  budget : int option;  (** per-pair node budget (solver default if None) *)
  attempts : int;  (** in-lease I/O attempts per shard (Rt.Backoff) *)
  max_requeues : int;  (** cross-worker retries before quarantine *)
  deadline : Rt.Deadline.t;
  fsync : bool;
  store_depth : int;
  heartbeat : float;
      (** telemetry heartbeat publish interval, seconds; [<= 0] turns
          the publisher off entirely (no tick thread, no [.hb] file) *)
  flight : string option;
      (** dump the {!Obs.Events} flight ring here on every heartbeat
          tick and at the end of the run, so a killed worker leaves a
          last-moments record no older than one tick *)
  speculate : bool;
      (** when idle, re-execute straggler-held shards under their
          secondary lease and race the holder to the record *)
  throttle : float option;
      (** cap the scan rate at this many pairs/s — a chaos-test hook
          for manufacturing stragglers deterministically; [None] (the
          default) in any real deployment *)
}

val default_config : dir:string -> config
(** ttl 30 s, 1 job, 3 attempts, 2 re-enqueues, no deadline, fsync on,
    store depth 0, heartbeat every 2 s, no flight file, no speculation,
    no throttle. *)

type summary = {
  completed : int;
  claimed : int;
  reclaimed : int;  (** claims that reclaimed a stale lease *)
  abandoned : int;  (** leases lost mid-scan; shard left to its new owner *)
  requeued : int;
  quarantined : int;
  pairs : int;  (** pair verdicts computed across all shard scans *)
  speculated : int;  (** speculative re-executions started *)
  spec_wins : int;
      (** speculative records that landed first (each also counts in
          [completed]) *)
  deduped : int;
      (** own outputs discarded after losing a record race — the
          harmless cost of speculation, never lost verdicts *)
}

val zero_summary : summary

val certify :
  ?replace:bool ->
  ?on_fault:(unit -> unit) ->
  dir:string ->
  fsync:bool ->
  owner:string ->
  id:int ->
  cache:Efgame.Cache.t ->
  outcome:Record.outcome ->
  table:string ->
  table_name:string option ->
  wall_ns:int64 ->
  unit ->
  ([ `Certified of int | `Superseded of Record.t option * int64 ], string)
  result
(** One certification attempt, shared by the worker and {!Heal}: save
    [cache] to [table], reload it strictly, check the entry count, and
    write shard [id]'s record with the file's hash. [`Superseded]:
    another record landed first (the winner if readable, our hash).
    [Error] is retryable; an injected [dist.certify] fault also calls
    [on_fault]. [replace] (default false) is {!Heal}'s overwrite. *)

val run : ?stop:(unit -> bool) -> config -> (summary, string) result
(** Work the directory until every shard is Done or Quarantined, the
    [stop] callback fires, the deadline expires, or a latched signal is
    pending ({!Rt.Signal}). While other workers hold the remaining
    shards, polls at a fraction of the TTL waiting for them to finish or
    go stale. [Error] only on a missing or invalid manifest.

    With [heartbeat > 0] the worker advertises itself live via
    {!Heartbeat}: a tick thread publishes its [.hb] snapshot in [dir]
    every [heartbeat] seconds (the solve path only bumps atomics). The
    final snapshot is published synchronously before [run] returns, so
    an aggregate over the fleet's heartbeats matches the sum of the
    returned summaries exactly. *)
