(* Worker heartbeat snapshots: each worker advertises its live state in
   a small JSON file next to the shards it works on, published by its
   telemetry tick thread (never the solve path — see DESIGN.md) with
   the usual tmp+rename atomicity. Progress is published both in pairs
   and in {!Cost} units, the (q+1)^2 price [shard top]'s ETA divides.

   The mtime-based lease heartbeat answers "is this worker alive?"; the
   snapshot answers "what is it doing and how fast?". The two are
   deliberately independent: losing a heartbeat file (crash before the
   first tick, deleted by an operator) costs visibility, never
   correctness, and the aggregator treats an unreadable or stale
   snapshot exactly like [Merge] treats a corrupt shard — skip it,
   warn, and keep counting the others. *)

let schema = "efgame-heartbeat/1"
let suffix = ".hb"

(* Everything the worker's hot path updates, as plain atomics: the tick
   thread reads them at its leisure. Publishing never takes a lock the
   scan could be holding. *)
type stats = {
  owner : string;
  started : float;
  pairs : int Atomic.t;  (** pair verdicts, cumulative across shards *)
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
  current_shard : int Atomic.t;  (** -1 = between shards *)
  (* seconds-since-epoch as an int: atomics over floats would box *)
  last_checkpoint_s : int Atomic.t;  (** 0 = never *)
  (* (q+1)^2 cost units completed, truncated to an int (atomics over
     floats would box) *)
  cost_done : int Atomic.t;
}

let make_stats ~owner =
  {
    owner;
    started = (Store.active ()).Store.now ();
    pairs = Atomic.make 0;
    completed = Atomic.make 0;
    claimed = Atomic.make 0;
    reclaimed = Atomic.make 0;
    abandoned = Atomic.make 0;
    requeued = Atomic.make 0;
    quarantined = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    faults = Atomic.make 0;
    retries = Atomic.make 0;
    current_shard = Atomic.make (-1);
    last_checkpoint_s = Atomic.make 0;
    cost_done = Atomic.make 0;
  }

(* The published view: what a snapshot file contains, and what the
   aggregator consumes. [now] is the publisher's clock at write time —
   staleness is judged against it, not the file mtime, so a copied or
   archived directory still renders sensibly. *)
type view = {
  v_owner : string;
  v_pid : int;
  v_host : string;
  v_started : float;
  v_now : float;
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
  v_cost_done : int;
}

let uptime v = v.v_now -. v.v_started

let cache_hit_rate v =
  let total = v.v_cache_hits + v.v_cache_misses in
  if total = 0 then 0. else float_of_int v.v_cache_hits /. float_of_int total

let pairs_per_s v =
  let up = uptime v in
  if up <= 0. then 0. else float_of_int v.v_pairs /. up

let checkpoint_age v =
  match v.v_last_checkpoint with
  | None -> None
  | Some t -> Some (Float.max 0. (v.v_now -. t))

(* Owner strings are host:pid:nonce — sanitize for the filesystem and
   append a short hash so distinct owners can't collide after
   sanitization. *)
let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c
      | _ -> '_')
    s

let path ~dir ~owner =
  let h = Int64.to_int (Manifest.fnv1a64 owner) land 0xffffff in
  Filename.concat dir (Printf.sprintf "worker-%s-%06x%s" (sanitize owner) h suffix)

let view_of_stats ?now ~seq s =
  let now =
    match now with Some n -> n | None -> (Store.active ()).Store.now ()
  in
  {
    v_owner = s.owner;
    v_pid = Unix.getpid ();
    v_host = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    v_started = s.started;
    v_now = now;
    v_seq = seq;
    v_pairs = Atomic.get s.pairs;
    v_completed = Atomic.get s.completed;
    v_claimed = Atomic.get s.claimed;
    v_reclaimed = Atomic.get s.reclaimed;
    v_abandoned = Atomic.get s.abandoned;
    v_requeued = Atomic.get s.requeued;
    v_quarantined = Atomic.get s.quarantined;
    v_cache_hits = Atomic.get s.cache_hits;
    v_cache_misses = Atomic.get s.cache_misses;
    v_faults = Atomic.get s.faults;
    v_retries = Atomic.get s.retries;
    v_current_shard =
      (match Atomic.get s.current_shard with -1 -> None | id -> Some id);
    v_last_checkpoint =
      (match Atomic.get s.last_checkpoint_s with
      | 0 -> None
      | t -> Some (float_of_int t));
    v_cost_done = Atomic.get s.cost_done;
  }

let write_view v w =
  let module J = Obs.Jsonw in
  J.obj w (fun w ->
      J.field_string w "schema" schema;
      J.field_string w "owner" v.v_owner;
      J.field_int w "pid" v.v_pid;
      J.field_string w "host" v.v_host;
      J.field_float ~prec:6 w "started_s" v.v_started;
      J.field_float ~prec:6 w "now_s" v.v_now;
      J.field_float ~prec:3 w "uptime_s" (uptime v);
      J.field_int w "seq" v.v_seq;
      J.field_int w "pairs" v.v_pairs;
      J.field_float ~prec:2 w "pairs_per_s" (pairs_per_s v);
      J.field_int w "completed" v.v_completed;
      J.field_int w "claimed" v.v_claimed;
      J.field_int w "reclaimed" v.v_reclaimed;
      J.field_int w "abandoned" v.v_abandoned;
      J.field_int w "requeued" v.v_requeued;
      J.field_int w "quarantined" v.v_quarantined;
      J.field_int w "cache_hits" v.v_cache_hits;
      J.field_int w "cache_misses" v.v_cache_misses;
      J.field_float ~prec:4 w "cache_hit_rate" (cache_hit_rate v);
      J.field_int w "faults" v.v_faults;
      J.field_int w "retries" v.v_retries;
      (* additive since the schema's first cut: readers default it to
         0 and ignore counters they do not know, so old and new
         heartbeats interoperate in one directory *)
      J.field_int w "cost_done" v.v_cost_done;
      (match v.v_current_shard with
      | Some id -> J.field_int w "current_shard" id
      | None -> J.field_null w "current_shard");
      match checkpoint_age v with
      | Some age ->
          J.field_float ~prec:6 w "last_checkpoint_s"
            (Option.get v.v_last_checkpoint);
          J.field_float ~prec:3 w "last_checkpoint_age_s" age
      | None -> J.field_null w "last_checkpoint_s")

(* Publishing degrades gracefully under a hostile store: a failed
   write (ENOSPC, EIO, injected chaos) is counted and logged ONCE at
   WARN, then the ticker keeps ticking — the next successful publish
   logs the recovery. Telemetry must never crash the tick thread or
   cost the worker its shard. *)
let m_publish_failures = Obs.Metrics.counter "dist.heartbeat_publish_failures"
let publish_degraded = Atomic.make false

let publish ~dir v =
  let st = Store.active () in
  let w = Obs.Jsonw.create ~initial_size:1024 () in
  write_view v w;
  match
    st.Store.put_atomic ~fsync:false
      (path ~dir ~owner:v.v_owner)
      (Obs.Jsonw.contents w ^ "\n")
  with
  | Ok () ->
      if Atomic.exchange publish_degraded false then
        Obs.Log.info ~tag:"dist" "heartbeat publishing recovered"
  | Error e ->
      Obs.Metrics.incr m_publish_failures;
      if not (Atomic.exchange publish_degraded true) then
        Obs.Log.warn ~tag:"dist"
          "heartbeat publish failed (%s); continuing without telemetry \
           until the store recovers"
          (Store.error_message e)

(* ---------------------------------------------------------- reading *)

let opt_shard j =
  match Obs.Jsonr.member "current_shard" j with
  | Some (Obs.Jsonr.Num _ as n) -> Obs.Jsonr.to_int n
  | _ -> None

let of_json j =
  let module R = Obs.Jsonr in
  match
    ( R.mem_string "schema" j,
      R.mem_string "owner" j,
      R.mem_int "pid" j,
      R.mem_string "host" j,
      R.mem_float "started_s" j,
      R.mem_float "now_s" j )
  with
  | Some s, Some owner, Some pid, Some host, Some started, Some now
    when s = schema ->
      let i key = Option.value (R.mem_int key j) ~default:0 in
      Ok
        {
          v_owner = owner;
          v_pid = pid;
          v_host = host;
          v_started = started;
          v_now = now;
          v_seq = i "seq";
          v_pairs = i "pairs";
          v_completed = i "completed";
          v_claimed = i "claimed";
          v_reclaimed = i "reclaimed";
          v_abandoned = i "abandoned";
          v_requeued = i "requeued";
          v_quarantined = i "quarantined";
          v_cache_hits = i "cache_hits";
          v_cache_misses = i "cache_misses";
          v_faults = i "faults";
          v_retries = i "retries";
          v_current_shard = opt_shard j;
          v_last_checkpoint = R.mem_float "last_checkpoint_s" j;
          v_cost_done = i "cost_done";
        }
  | Some s, _, _, _, _, _ when s <> schema ->
      Error (Printf.sprintf "unsupported heartbeat schema %S" s)
  | _ -> Error "missing heartbeat fields"

let load file =
  match (Store.active ()).Store.read file with
  | Error e -> Error (file ^ ": " ^ Store.error_message e)
  | Ok data -> (
      match Obs.Jsonr.parse data with
      | Error msg -> Error (file ^ ": " ^ msg)
      | Ok j -> (
          match of_json j with
          | Ok v -> Ok v
          | Error msg -> Error (file ^ ": " ^ msg)))

(* Corrupt-tolerant sweep, the [Merge] discipline: a heartbeat that
   fails to read is a warning in the result, never an exception — one
   worker dying mid-publish (tmp+rename makes even that unlikely) must
   not blind the aggregator to the rest of the fleet.

   Each view comes back with the store-observed mtime of its file, so
   staleness can be judged against what the shared directory actually
   shows rather than trusting the publisher's own (possibly skewed)
   clock — a worker whose clock disagrees is then flagged as skewed by
   the aggregator instead of being mis-classified as stale or
   suspiciously fresh. *)
type observed = { ob_view : view; ob_mtime : float option }

let list ~dir =
  let st = Store.active () in
  match st.Store.list dir with
  | Error e -> ([], [ dir ^ ": " ^ Store.error_message e ])
  | Ok names ->
      Array.fold_left
        (fun (views, warnings) name ->
          if
            String.starts_with ~prefix:"worker-" name
            && Filename.check_suffix name suffix
          then
            let file = Filename.concat dir name in
            match load file with
            | Ok v ->
                let ob_mtime =
                  match st.Store.mtime file with
                  | Ok m -> Some m
                  | Error _ -> None
                in
                ({ ob_view = v; ob_mtime } :: views, warnings)
            | Error msg ->
                (views, Printf.sprintf "skipping heartbeat %s: %s" name msg :: warnings)
          else (views, warnings))
        ([], []) names
      |> fun (views, warnings) -> (List.rev views, List.rev warnings)
