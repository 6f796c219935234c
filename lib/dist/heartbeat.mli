(** Worker heartbeat snapshots ([efgame-heartbeat/1]).

    Each fleet worker publishes a small JSON file
    ([worker-<owner>-<hash>.hb]) in the shard directory from its
    telemetry tick thread: pairs done, (q+1)^2 cost done ({!Cost}),
    cache hit rate, current lease, retry/fault counts, last-checkpoint
    age. The solve hot path only
    bumps the plain atomics in {!stats}; the tick thread turns them
    into a {!view} and writes it atomically (tmp+rename). The
    aggregator ([shard top]) reads every [.hb] file back, skipping
    corrupt or truncated ones with a warning — the [Merge] discipline
    applied to telemetry. *)

val schema : string

(** {1 Hot-path side} *)

(** Mutable per-worker counters, all plain atomics — safe to bump from
    any solver domain, read by the tick thread without locks.
    [current_shard] is [-1] between shards; [last_checkpoint_s] is
    seconds-since-epoch truncated to an int ([0] = never). *)
type stats = {
  owner : string;
  started : float;
  pairs : int Atomic.t;
  completed : int Atomic.t;
  claimed : int Atomic.t;
  reclaimed : int Atomic.t;
  abandoned : int Atomic.t;
  requeued : int Atomic.t;
  quarantined : int Atomic.t;
  cache_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  faults : int Atomic.t;
  retries : int Atomic.t;
  current_shard : int Atomic.t;
  last_checkpoint_s : int Atomic.t;
  cost_done : int Atomic.t;
      (** {!Cost} units completed, truncated to an int *)
}

val make_stats : owner:string -> stats

(** {1 Published view} *)

type view = {
  v_owner : string;
  v_pid : int;
  v_host : string;
  v_started : float;
  v_now : float;  (** publisher's clock at write time *)
  v_seq : int;
  v_pairs : int;
  v_completed : int;
  v_claimed : int;
  v_reclaimed : int;
  v_abandoned : int;
  v_requeued : int;
  v_quarantined : int;
  v_cache_hits : int;
  v_cache_misses : int;
  v_faults : int;
  v_retries : int;
  v_current_shard : int option;
  v_last_checkpoint : float option;
  v_cost_done : int;  (** additive field — readers default it to 0 *)
}

val view_of_stats : ?now:float -> seq:int -> stats -> view

val uptime : view -> float
val cache_hit_rate : view -> float
val pairs_per_s : view -> float
val checkpoint_age : view -> float option

(** The heartbeat file path for [owner] under [dir] (sanitized name
    plus a short owner hash, so distinct owners never collide). *)
val path : dir:string -> owner:string -> string

(** Atomically write the view's heartbeat file through the active
    {!Store}. Degrades gracefully: a failed publish (ENOSPC, EIO,
    injected chaos) bumps the [dist.heartbeat_publish_failures] counter
    and logs once at WARN, then stays quiet until the next success logs
    the recovery — telemetry never crashes the tick thread or the
    worker. *)
val publish : dir:string -> view -> unit

(** {1 Reading} *)

val of_json : Obs.Jsonr.t -> (view, string) result
(** Missing counters read as 0 and unknown fields are ignored, so
    snapshots from older and newer writers of the same schema load. *)

val load : string -> (view, string) result

type observed = { ob_view : view; ob_mtime : float option }
(** A readable heartbeat plus the store-observed mtime of its file —
    the aggregator judges staleness against the mtime (what the shared
    directory shows) and uses the gap to the publisher's own [v_now]
    to flag clock skew. *)

(** All readable heartbeats under [dir] (sorted by file name), plus one
    warning per skipped unreadable/corrupt file. Never raises. *)
val list : dir:string -> observed list * string list
