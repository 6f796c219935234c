(** The shard manifest: one immutable, checksummed file cutting a
    frontier scan into triangle windows of near-equal [(q+1)^2] cost
    ({!Cost}), plus the filesystem-derived per-shard lifecycle.

    Everything {e mutable} about a scan — who holds which shard, which
    shards are finished or quarantined — is deliberately not in the
    manifest. Per-shard state is derived from the presence and age of
    sibling files ([shard-NNNN.lease] / [.done] / [.quarantine]), so
    there is no coordinator process and no file two workers ever update
    concurrently; the shared directory {e is} the cluster state. *)

type shard = { id : int; lo : int; hi : int }
(** A half-open window [lo, hi) of the linearized (p, q) triangle
    (see {!Efgame.Witness.index_of_pair}). *)

type t = {
  k : int;
  max_n : int;
  total : int;
  shards : shard array;
}

(** Shard lifecycle, derived from the filesystem by {!state}:
    [Quarantined] if a quarantine record exists (terminal), else [Done]
    if a completion record exists, else [Leased] if a lease file exists
    with mtime within the TTL, else [Pending] — which includes a
    {e stale} lease (mtime past the TTL), claimable via reclaim. *)
type state = Pending | Leased | Done | Quarantined

val create : k:int -> max_n:int -> shards:int -> unit -> t
(** Cut the triangle for [max_n] into [shards] nonempty windows of
    near-equal {e cost} (every pair in row [q] priced at [(q+1)^2]; see
    {!Cost.tile}), capped at one pair per shard. [Invalid_argument] on
    nonsensical parameters. *)

val save : t -> dir:string -> (unit, string) result
(** Write [dir]/manifest (tmp + fsync + atomic rename). Refuses to
    overwrite an existing manifest: the manifest is immutable, and a
    scan directory is initialized exactly once. *)

val load : dir:string -> (t, string) result
(** Read and validate: version, trailing whole-file checksum, field
    consistency (total matches max_n, windows inside the triangle).
    Version 1 files and version 2 files with an older [model] line
    ([uniform] or [power:ALPHA], ALPHA finite in [0, 16]) load with
    their windows as written; the model value is checked, not used. *)

val state : dir:string -> ttl:float -> shard -> state
val lease_age : string -> int -> float option
(** Seconds since the shard's lease heartbeat, if a lease file exists. *)

type counts = {
  pending : int;
  leased : int;
  stale : int;  (** subset of [pending] held by a lease past the TTL *)
  done_ : int;
  quarantined : int;
}

val counts : dir:string -> ttl:float -> t -> counts

(** {1 Shard file layout} — all under the scan directory. *)

val path : string -> string
val table_path : string -> int -> string
val lease_path : string -> int -> string
val done_path : string -> int -> string
val retries_path : string -> int -> string
val quarantine_path : string -> int -> string

(** {1 Cross-worker retry counter and quarantine records} *)

val retries : string -> int -> int
(** Re-enqueue count so far (0 when the counter file is absent). *)

val bump_retries : string -> int -> int
(** Increment and return the new count. Last-writer-wins: only the
    lease holder bumps it, and it only gates retry exhaustion. *)

val quarantine : dir:string -> owner:string -> int -> string -> (unit, string) result
(** Write the shard's quarantine record (terminal: {!state} reports
    [Quarantined] from now on) with the given reason. *)

val quarantine_reason : string -> int -> string option

val fnv1a64 : string -> int64
(** The repo-standard integrity hash (shared with {!Efgame.Persist}). *)
