(** Fleet aggregation for [efgame_cli shard top]: merge every worker's
    heartbeat snapshot with the manifest's derived shard states into
    one live view.

    {!aggregate} is pure (the clock is a parameter): the fleet row is,
    by construction, the field-wise sum of the worker snapshots — the
    property the qcheck test pins down. Tolerance to missing/corrupt/
    stale snapshots lives in {!Heartbeat.list} (skip + warn) and in the
    [fresh] flag here (a stale worker's rate is excluded from fleet
    throughput and the ETA, but its counters still count: its completed
    work is real). The ETA prices the outstanding windows at the
    {!Cost} price, [(q+1)^2] per pair, whatever cut the manifest was
    written with. *)

type worker_row = {
  hb : Heartbeat.view;
  age : float;
      (** [now] minus the store-observed file mtime when known, else
          minus the snapshot's self-reported publish time — staleness
          is judged by what the shared directory shows, so a worker
          with a skewed clock is not mis-classified *)
  fresh : bool;  (** [age <= stale_after] *)
  skew_s : float option;
      (** publisher clock minus store mtime, when the mtime is known *)
  skewed : bool;  (** [|skew_s| > skew_margin] — flagged, not stale *)
  rate : float;  (** pairs/s over the worker's uptime *)
  cost_rate : float;  (** (q+1)^2 cost units/s over the worker's uptime *)
  share : float;  (** of fleet pairs; 0 when the fleet is at 0 *)
}

type t = {
  now : float;
  workers : worker_row list;  (** sorted by owner *)
  fleet_pairs : int;
  fleet_completed : int;
  fleet_claimed : int;
  fleet_reclaimed : int;
  fleet_abandoned : int;
  fleet_requeued : int;
  fleet_quarantined : int;
  fleet_cache_hits : int;
  fleet_cache_misses : int;
  fleet_faults : int;
  fleet_retries : int;
  rate : float;  (** Σ rate over fresh workers *)
  shards_pending : int;
  shards_leased : int;
  shards_done : int;
  shards_quarantined : int;
  total_pairs : int;
  done_pairs : int;
  remaining_pairs : int;  (** windows still Pending or Leased *)
  total_cost : float;  (** Σ {!Cost.window_cost} over every shard *)
  done_cost : float;
  remaining_cost : float;
  eta_s : float option;
      (** [remaining_cost] over the fresh workers' summed cost rate;
          [None] when either is 0 *)
}

val default_stale_after : float
(** 10 s — five default heartbeat intervals. *)

val default_skew_margin : float
(** 2 s — |publisher clock − store mtime| beyond this flags the worker
    as clock-skewed. Callers running under a chaos store should widen
    it to at least {!Store.stale_margin}. *)

val aggregate :
  now:float ->
  ?stale_after:float ->
  ?skew_margin:float ->
  ?states:(Manifest.shard * Manifest.state) list ->
  Heartbeat.observed list ->
  t

val write_json : ?warnings:string list -> t -> Obs.Jsonw.t -> unit
(** The [efgame-top/4] document: [fleet] (sums + rate + ETA),
    [shards] (counts, pair and cost totals), per-worker rows, and the
    skip warnings. Every [efgame-top/1] field is carried unchanged. *)

val render : ?warnings:string list -> t -> string
(** Human-readable multi-line rendering for the watch loop. *)
