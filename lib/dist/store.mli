(** The fleet's storage interface: exactly the primitives the shard
    protocol needs from its shared directory, behind a first-class
    value, with a hostile deterministic implementation for chaos tests.

    Everything in [lib/dist] goes through the {e active} store — there
    are no direct [Unix]/[Sys] filesystem calls outside this module
    (CI greps for it). The default {!posix} store is the current
    local-filesystem behavior at zero overhead; {!chaos} wraps any
    store in seeded hostility (coarse mtimes, clock skew, delayed
    rename visibility, torn creates, transient I/O faults) so the
    protocol can be soaked under NFS-like semantics before anyone
    trusts short TTLs there.

    {b The consistency contract} (DESIGN.md decision 9): every store
    declares {!bounds}, and the lease protocol derives its safety
    margins from them instead of assuming POSIX-local sharpness —
    a lease is presumed dead only past [ttl + mtime_granularity +
    clock_skew], and a reclaim needs two observations of an unchanged
    mtime separated by a grace interval of at least the rename
    visibility bound. Under those margins reclaim stays sound: a
    healthy holder renewing at [ttl/3] can never look stale, and a
    rename that is merely slow to become visible can never be mistaken
    for a dead worker. *)

(** Store operation failures. [Absent]: the path does not exist (or is
    not yet visible to this handle — same thing, by the contract).
    [Exists]: an exclusive create lost the race. [Io]: anything
    transient or environmental (EIO, ENOSPC, EINTR, injected); the
    operation may or may not have taken effect — callers must treat it
    as ambiguous. *)
type error = Absent | Exists | Io of string

val error_message : error -> string

(** What the protocol may assume of a store, in seconds. [posix] is all
    zeros; an NFS-like store coarsens mtimes to whole seconds, skews
    each client's clock, and delays visibility of another handle's
    renames. *)
type bounds = {
  mtime_granularity_s : float;
      (** observed mtimes are truncated to multiples of this *)
  clock_skew_s : float;
      (** |this process's clock − any other's| is at most this *)
  rename_visibility_s : float;
      (** a rename/create by another handle is visible within this *)
}

type t = {
  label : string;
  bounds : bounds;
  now : unit -> float;
      (** this process's clock — skewed under chaos, so ages computed
          against store mtimes see exactly the error a real fleet
          would *)
  put_atomic : ?fsync:bool -> string -> string -> (unit, error) result;
      (** [put_atomic path data]: tmp + (fsync) + rename. Readers see
          the whole new content or the whole old one, never a tear. *)
  create_excl : string -> string -> (unit, error) result;
      (** Atomic [O_CREAT|O_EXCL] create with content — the claim
          linearization point. [Exists] if someone else won. [Io] is
          {e ambiguous}: the file may or may not have been created. *)
  read : string -> (string, error) result;
  list : string -> (string array, error) result;
      (** Entry names (not paths) under a directory, sorted. *)
  delete : string -> (unit, error) result;
  rename : src:string -> dst:string -> (unit, error) result;
      (** Atomic; [Absent] when [src] vanished (lost a reclaim race). *)
  touch : string -> (unit, error) result;
      (** Bump mtime to now — the lease heartbeat. *)
  mtime : string -> (float, error) result;
  exists : string -> bool;
  mkdir : string -> (unit, error) result;
      (** [Ok] if created or already present. *)
}

val posix : t
(** The local filesystem, zero-overhead: all bounds 0. *)

(** {1 Derived protocol margins} *)

val stale_margin : t -> float
(** [mtime_granularity + clock_skew]: how much older than the TTL a
    lease mtime must look before it may be presumed dead. *)

val reclaim_grace : t -> ttl:float -> float
(** The interval between the two stale observations a reclaim
    requires: at least the rename-visibility + granularity bound, and
    at least [ttl/4] so one poll cycle at the worker's cadence
    satisfies it. *)

(** {1 Chaos injection} *)

(** Knobs for {!chaos}, all deterministic in the seed. Rates are
    per-operation probabilities in [0, 1]. *)
type profile = {
  p_name : string;
  p_mtime_granularity_s : float;  (** observed mtimes floored to this *)
  p_clock_skew_s : float;  (** per-process skew drawn from ±this *)
  p_visibility_s : float;
      (** another handle's fresh files may read as [Absent] this long *)
  p_fault_rate : float;  (** transient EIO/ENOSPC/EINTR per operation *)
  p_torn_rate : float;
      (** [create_excl] succeeds on disk but reports ambiguous [Io] *)
}

val profiles : (string * profile) list
(** Named profiles: ["nfs-coarse"] (1 s mtimes, ±1.5 s skew, delayed
    visibility, 2% transient faults, 2% torn creates — the shard torture
    test's profile), ["flaky-io"] (aggressive transient faults and torn
    creates on sharp local semantics), ["skewed-clock"] (coarse mtimes
    and large skew, no faults), ["none"] (identity wrapper). *)

val profile : string -> (profile, string) result

val chaos : ?seed:int -> profile -> t -> t
(** Wrap a store in seeded hostility. Deterministic per (seed, pid):
    the same process replays the same faults. Files written through
    the wrapper by this process never flicker [Absent] (you always see
    your own writes, as on real network filesystems); other handles'
    fresh files may. The wrapped store's {!bounds} advertise the
    injected hostility so the protocol margins absorb it. *)

(** {1 Active store} *)

val active : unit -> t
(** The store every [lib/dist] module uses; {!posix} until {!use}. *)

val use : t -> unit

val of_spec : string -> (t, string) result
(** Parse ["posix"], ["PROFILE"], or ["PROFILE:SEED"] (profile names
    from {!profiles}) into a store over {!posix}. Seed defaults to 0. *)

val setup : ?spec:string -> unit -> (unit, string) result
(** Activate from an explicit spec if given, else from the
    [EFGAME_CHAOS] environment variable if set, else leave {!posix}
    active. [Error] on an unknown profile or malformed spec. *)
