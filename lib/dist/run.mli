(** The self-healing convergence controller behind [shard run]: rounds
    of work phase (an elastic, respawned fleet of worker processes) →
    heal phase → merge; a shard the merge quarantines is healed by the
    next round. The caller supplies only the process [spawn]. *)

type report = {
  rounds : int;  (** rounds actually run (at least 1) *)
  spawned : int;  (** worker processes started over all work phases *)
  respawns : int;  (** [spawned] beyond the first [workers] *)
  healed : int;  (** shards re-certified by the heal phases *)
  heal_failures : int;  (** heal-infrastructure errors *)
  poisoned : int;  (** shards still quarantined at the end *)
  converged : bool;  (** nothing pending, leased, or quarantined *)
  phases : (string * int * float) list;  (** phase, round, wall s *)
  merge : (Merge.t, string) result;  (** the last round's merge into [out] *)
}

val converge :
  ?phase_deadline_s:float ->
  ?budget:int ->
  ?jobs:int ->
  dir:string ->
  ttl:float ->
  workers:int ->
  rounds:int ->
  out:string ->
  spawn:(unit -> int) ->
  Manifest.t ->
  report
(** Drive [dir] to convergence and merge it into [out]. [spawn] starts
    one worker and returns its pid; it is called only while work is
    Pending or Leased, and survivors are SIGTERMed and reaped at the
    end of each work phase. [budget] and [jobs] configure the heal
    phase; [phase_deadline_s] bounds each work and heal phase. Stops
    after [rounds] rounds, on a pending signal, once the merge is clean
    and complete, or after a round that made no progress. *)

val drain_tail_s : dir:string -> Manifest.t -> float option
(** How long the last window's completion outlived the median one
    (done-file store mtimes); [None] with fewer than two Done shards. *)
