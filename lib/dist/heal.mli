(** Automatic quarantine repair: re-solve a quarantined shard's window
    from scratch (fresh caches, budgets escalated 2x per split level)
    and either clear the quarantine with a re-certified table or narrow
    it to the irreducible sub-windows that still fail.

    Sound by the usual argument — sub-window scans are deterministic
    and the blend is the monotone merge, so a healed table holds
    exactly the verdicts a healthy worker would have certified.
    Re-certification is the one sanctioned use of
    [Record.write ~replace:true]; the quarantine file is deleted only
    {e after} the fresh record lands, so a crash mid-heal leaves the
    shard Quarantined and the heal idempotently re-runnable. *)

type config = {
  dir : string;
  budget : int option;
      (** base per-pair node budget; escalated 2x per split level
          ([None] = solver default at every level) *)
  jobs : int;
  fsync : bool;
  deadline : Rt.Deadline.t;
}

val default_config : dir:string -> config
(** solver-default budget, 1 job, fsync on, no deadline. *)

type 'a leaf = { l_lo : int; l_hi : int; l_result : ('a, string) result }

val split_tiles :
  solve:(depth:int -> int -> int -> ('a, string) result) ->
  int ->
  int ->
  'a leaf list
(** The pure split-and-retry skeleton: solve the window; on failure
    split at the midpoint and recurse both halves one [depth] deeper,
    until sub-windows solve or reach a single pair that still fails.
    The leaves always tile the original window exactly, in order —
    whatever [solve] answers (the property the qcheck test pins
    down). *)

type outcome = {
  entries : int;  (** entries in the re-certified table *)
  splits : int;  (** solved sub-windows (1 = whole window on first try) *)
}

val heal :
  cfg:config ->
  Manifest.t ->
  Manifest.shard ->
  ( [ `Healed of outcome | `Poisoned of (int * int * string) list ],
    string )
  result
(** Heal one shard. [`Healed]: quarantine cleared, table re-certified
    under a replaced record, retry counter deleted. [`Poisoned]: the listed sub-windows are irreducible (one
    pair, still failing at escalated budget); the quarantine reason is
    rewritten to name exactly them. [Error]: the shard is not
    quarantined, the deadline expired, or the store refused the
    re-certification — the shard is left Quarantined and the heal can
    simply be re-run. *)

type fleet = {
  healed : int;
  still_poisoned : int;
  failed : int;  (** heal-infrastructure errors; shards left untouched *)
  per_shard :
    (int
    * [ `Healed of outcome
      | `Poisoned of (int * int * string) list
      | `Error of string ])
    list;
}

val heal_all : cfg:config -> (fleet, string) result
(** Heal every Quarantined shard in the directory, in id order. Never
    raises; [Error] only on an unreadable manifest. *)
