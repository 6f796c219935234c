(* The shard worker: claim → scan → persist → certify → release, in a
   loop, until every shard in the directory is terminal (Done or
   Quarantined) or the driver asks us to stop.

   Failure handling is layered:

   - Transient I/O failures inside one attempt (a failed save, a failed
     validation read, a failed record write) are retried in-lease with
     capped exponential backoff ({!Rt.Backoff.retry}), renewing the
     lease heartbeat before each retry so a slow disk doesn't cost us
     the shard.
   - A shard whose attempts are exhausted is *re-enqueued*: its partial
     outputs are deleted, its cross-worker retry counter is bumped, and
     its lease released, so any worker (including this one) can try it
     again from scratch.
   - A shard that keeps failing past [max_requeues], or whose scan came
     back Inconclusive (budget exhaustion — deterministic, retrying
     cannot help), is {e quarantined} with a reason and never merged.
   - A lease lost mid-scan (we wedged past the TTL and someone reclaimed
     us) abandons the shard: the reclaiming worker owns it now, and our
     half-finished table must not be certified. Double execution up to
     that point is harmless — shard scans are deterministic and the
     merge is monotone (see DESIGN.md).

   Speculative re-execution (DESIGN.md decision 10) rides on the same
   soundness argument: a worker that has nothing claimable but sees a
   fresh holder straggling far below the fleet's robust median rate
   claims the shard's *secondary* lease, re-solves the window into a
   separate [.spec.tbl], and races the straggler to the completion
   record. The record's exclusive create is the single winner point;
   the loser reads the winner's record back, checks the content hashes
   agree (deterministic scans make the duplicate byte-identical), and
   discards its own output. *)

let m_completed = Obs.Metrics.counter "dist.shards_completed"
let m_abandoned = Obs.Metrics.counter "dist.shards_abandoned"
let m_requeued = Obs.Metrics.counter "dist.shards_requeued"
let m_quarantined = Obs.Metrics.counter "dist.shards_quarantined"
let m_speculated = Obs.Metrics.counter "dist.shards_speculated"
let m_spec_wins = Obs.Metrics.counter "dist.speculation_wins"
let m_deduped = Obs.Metrics.counter "dist.records_deduped"

let fp_claim = Rt.Fault.point "dist.claim"
let fp_certify = Rt.Fault.point "dist.certify"

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
  heartbeat : float;  (** snapshot publish interval; <= 0 disables *)
  flight : string option;  (** dump the flight ring here on every tick *)
  speculate : bool;  (** re-execute straggler-held shards when idle *)
  throttle : float option;
      (** cap the scan rate at this many pairs/s — a chaos-test hook
          for manufacturing stragglers, never set in production *)
}

let default_config ~dir =
  {
    dir;
    ttl = 30.;
    jobs = 1;
    budget = None;
    attempts = 3;
    max_requeues = 2;
    deadline = Rt.Deadline.none;
    fsync = true;
    store_depth = 0;
    heartbeat = 2.;
    flight = None;
    speculate = false;
    throttle = None;
  }

type summary = {
  completed : int;
  claimed : int;
  reclaimed : int;
  abandoned : int;  (** lease lost mid-scan; shard left to its new owner *)
  requeued : int;
  quarantined : int;
  pairs : int;  (** pair verdicts computed across all shard scans *)
  speculated : int;  (** speculative re-executions started *)
  spec_wins : int;  (** speculative records that landed first *)
  deduped : int;  (** own outputs discarded after losing a record race *)
}

let zero_summary =
  {
    completed = 0;
    claimed = 0;
    reclaimed = 0;
    abandoned = 0;
    requeued = 0;
    quarantined = 0;
    pairs = 0;
    speculated = 0;
    spec_wins = 0;
    deduped = 0;
  }

let remove_quiet path = ignore ((Store.active ()).Store.delete path)

(* One certification attempt — the single certify discipline of the
   library, shared by the worker and {!Heal}: snapshot the cache to
   [table], re-read it strictly (exactly what the merge will do), check
   the entry count, hash the file, and write the completion record
   naming that hash. Any retryable failure is an [Error] for
   {!Rt.Backoff.retry}; losing the record race is a *success* of kind
   [`Superseded] — someone certified the shard first, and retrying
   could never turn that into a win. [replace] is the heal's sanctioned
   record overwrite (see {!Record.write}). *)
let certify ?(replace = false) ?(on_fault = ignore) ~dir ~fsync ~owner ~id
    ~cache ~outcome ~table ~table_name ~wall_ns () =
  match
    Rt.Fault.fire fp_certify;
    Efgame.Persist.save ~fsync cache table
  with
  | exception Rt.Fault.Injected site ->
      on_fault ();
      Error (Printf.sprintf "injected fault at %s" site)
  | Error e -> Error (Format.asprintf "save: %a" Efgame.Persist.pp_error e)
  | Ok written -> (
      let check = Efgame.Cache.create () in
      match Efgame.Persist.load check table with
      | Error e ->
          Error (Format.asprintf "validation: %a" Efgame.Persist.pp_error e)
      | Ok r when r.Efgame.Persist.entries <> written ->
          Error
            (Printf.sprintf "validation: %d entries on disk, %d written"
               r.Efgame.Persist.entries written)
      | Ok _ -> (
          match Record.file_fnv table with
          | Error msg -> Error ("checksum: " ^ msg)
          | Ok fnv -> (
              let record =
                {
                  Record.shard = id;
                  owner;
                  outcome;
                  entries = written;
                  table_fnv = fnv;
                  table = table_name;
                  wall_ns = Some wall_ns;
                }
              in
              match Record.write ~replace ~dir record with
              | `Written -> Ok (`Certified written)
              | `Lost (Some w)
                when w.Record.owner = owner && w.Record.table_fnv = fnv ->
                  (* our own earlier create: a chaotic store reported a
                     real success as ambiguous, the retry saw Exists —
                     recognize it, same discipline as Lease claims *)
                  Ok (`Certified written)
              | `Lost winner -> Ok (`Superseded (winner, fnv))
              | `Error msg -> Error ("record: " ^ msg))))

(* Retried in-lease; each retry renews the heartbeat first so slow I/O
   can't cost us the lease while we back off. *)
let certify_with_retries ~cfg ~owner ~hb ~shard ~lease ~cache ~table
    ~table_name ~wall_ns outcome =
  Rt.Backoff.retry ~attempts:cfg.attempts
    ~on_retry:(fun ~attempt ~delay:_ ->
      Atomic.incr hb.Heartbeat.retries;
      if Obs.Events.enabled () then
        Obs.Events.record
          ~detail:
            (Printf.sprintf "certify shard %d attempt %d" shard.Manifest.id
               attempt)
          "retry";
      ignore (Lease.renew lease))
    (certify ~dir:cfg.dir ~fsync:cfg.fsync
       ~on_fault:(fun () -> Atomic.incr hb.Heartbeat.faults)
       ~owner ~id:shard.Manifest.id ~cache ~outcome ~table ~table_name
       ~wall_ns)

(* A racer that lost the completion record discards its own table:
   deterministic scans mean the winner certified the same verdicts, so
   a hash mismatch is logged loudly (it would mean the determinism
   assumption broke), but the merge stays sound either way — it reads
   only the winner's certified file.

   The delete is gated on positively reading the winner's record and
   seeing that it names a different file. When the winner cannot be
   read (a transient store fault, or torn-record debris) the duplicate
   is kept: the winner may well have certified the very path we hold —
   a reclaimer certifies the same [shard-NNNN.tbl] a slow original
   holder writes — and deleting on a guess destroys a certified table.
   A stray uncertified table is harmless; the merge reads only files a
   record's checksum vouches for. *)
let discard_duplicate ~cfg ~hb id ~our_table ~our_fnv winner =
  Obs.Metrics.incr m_deduped;
  (match winner with
  | Some w when w.Record.table_fnv = our_fnv ->
      Obs.Log.info ~tag:"dist"
        "shard %d: certified first by %s with identical content %Lx; \
         discarding duplicate"
        id w.Record.owner our_fnv
  | Some w ->
      Obs.Log.err ~tag:"dist"
        "shard %d: duplicate execution hash %Lx differs from winning \
         record's %Lx — determinism violation? (merge unaffected: it \
         reads only the certified table)"
        id our_fnv w.Record.table_fnv
  | None ->
      Obs.Log.warn ~tag:"dist"
        "shard %d: lost the record race to an unreadable record; \
         keeping our table in case the winner certified it" id);
  (match winner with
  | Some w when Record.table_file ~dir:cfg.dir w <> our_table ->
      remove_quiet our_table
  | Some _ | None -> ());
  ignore hb

(* Scan one claimed shard's window. Returns the warmed cache on success
   so certification writes exactly what was computed.

   The heartbeat atomics are refreshed from the scheduler's tick
   callback (cumulative pairs, this shard's cache counters on top of
   the pre-shard base): the scan only ever stores into atomics here,
   and the telemetry thread turns them into a snapshot file at its own
   pace. [abort] is polled at the lease-renew cadence: a speculator
   passes "the shard's record exists", so a superseded speculation
   stops burning cycles within a third of a TTL. *)
let execute ~cfg ~stop ?(abort = fun () -> false) ~hb (lease : Lease.t)
    shard m =
  let open Manifest in
  let cache = Efgame.Cache.create () in
  let engine =
    if cfg.jobs > 1 then Efgame.Witness.Parallel (cache, cfg.jobs)
    else Efgame.Witness.Cached cache
  in
  let pairs_base = Atomic.get hb.Heartbeat.pairs in
  let hits_base = Atomic.get hb.Heartbeat.cache_hits in
  let misses_base = Atomic.get hb.Heartbeat.cache_misses in
  let cost_base = Atomic.get hb.Heartbeat.cost_done in
  let set_progress ~completed =
    Atomic.set hb.Heartbeat.pairs (pairs_base + completed);
    let cs = Efgame.Cache.stats cache in
    Atomic.set hb.Heartbeat.cache_hits (hits_base + cs.Efgame.Cache.hits);
    Atomic.set hb.Heartbeat.cache_misses (misses_base + cs.Efgame.Cache.misses);
    match m.model with
    | Cost.Uniform -> ()
    | model ->
        let c = Cost.window_cost model shard.lo (shard.lo + completed) in
        Atomic.set hb.Heartbeat.cost_done (cost_base + int_of_float c)
  in
  let st = Store.active () in
  let started = st.Store.now () in
  let lost = ref false in
  let aborted = ref false in
  let last_renew = ref started in
  let renew_if_due () =
    let now = st.Store.now () in
    if now -. !last_renew > cfg.ttl /. 3. then begin
      (match Lease.renew lease with `Renewed -> () | `Lost -> lost := true);
      if abort () then aborted := true;
      last_renew := now
    end
  in
  let on_tick ~completed =
    set_progress ~completed;
    (* chaos-test-only rate cap: sleep off the whole surplus, in small
       slices so the lease stays renewed and a landing record (a
       speculator rescued this shard under us) aborts the crawl within a
       renewal interval instead of at the end of the nap *)
    (match cfg.throttle with
    | Some rate when rate > 0. ->
        let ideal = started +. (float_of_int completed /. rate) in
        let rec pace () =
          let now = st.Store.now () in
          if
            now < ideal && (not !lost) && (not !aborted) && (not (stop ()))
            && Rt.Signal.pending () = None
            && not (Rt.Deadline.expired cfg.deadline)
          then begin
            Unix.sleepf (Float.min (ideal -. now) 0.2);
            renew_if_due ();
            pace ()
          end
        in
        pace ()
    | _ -> ());
    renew_if_due ()
  in
  let stop () =
    !lost || !aborted || stop () || Rt.Deadline.expired cfg.deadline
    || Rt.Signal.pending () <> None
  in
  match
    Efgame.Witness.scan ?budget:cfg.budget ~engine ~store_depth:cfg.store_depth
      ~range:(shard.lo, shard.hi) ~on_tick ~stop ~k:m.k ~max_n:m.max_n ()
  with
  | exception e ->
      (* a crashed scan (an injected scheduler fault that escaped
         supervision, or anything else) requeues the shard instead of
         crashing the worker. Roll the progress atomics back to the
         pre-shard base: the summary credits a raised scan with zero
         pairs, and the published heartbeat must agree with it. *)
      set_progress ~completed:0;
      `Failed (Printf.sprintf "scan raised: %s" (Printexc.to_string e), 0)
  | outcome, stats -> (
      let pairs = stats.Efgame.Witness.pairs in
      set_progress ~completed:pairs;
      let wall_ns =
        Int64.of_float (Float.max 0. (st.Store.now () -. started) *. 1e9)
      in
      if !lost then `Lost_lease pairs
      else
        match outcome with
        | Efgame.Witness.Interrupted _ ->
            if !aborted then `Superseded pairs else `Stopped pairs
        | Efgame.Witness.Inconclusive (_, unknowns) ->
            `Undecidable
              ( Printf.sprintf "budget exhausted on %d pair(s)"
                  (List.length unknowns),
                pairs )
        | Efgame.Witness.Found (p, q) ->
            `Scanned (cache, Record.Found (p, q), pairs, wall_ns)
        | Efgame.Witness.Exhausted _ ->
            `Scanned (cache, Record.Exhausted, pairs, wall_ns))

let quarantine_shard ~cfg ~owner id reason =
  Obs.Metrics.incr m_quarantined;
  if Obs.Events.enabled () then
    Obs.Events.record
      ~detail:(Printf.sprintf "shard %d: %s" id reason)
      "quarantine";
  Obs.Log.warn ~tag:"dist" "shard %d quarantined: %s" id reason;
  match Manifest.quarantine ~dir:cfg.dir ~owner id reason with
  | Ok () -> ()
  | Error msg -> Obs.Log.err ~tag:"dist" "cannot quarantine shard %d: %s" id msg

(* Failure paths land here: count a cross-worker retry and either
   re-enqueue or quarantine — unless a completion record already
   exists, in which case the shard is Done (a speculator won it while
   we were failing) and there is nothing to repair: a certified record
   must never be deleted on a loser's failure path.

   Nothing is deleted here, deliberately. A concurrent certifier can
   land its record between any existence check and a delete, so
   removing the table or record path on a failure path is a
   lost-verdict race waiting to happen. Stale partial tables are
   overwritten by the next certifier's save (which rotates them to
   .bak), and torn-record debris is the merge's problem: an unreadable
   record quarantines the shard at merge time and {!Heal} re-certifies
   it under [replace:true]. *)
let requeue_or_quarantine ~cfg ~owner (lease : Lease.t) id reason =
  match Record.read ~dir:cfg.dir id with
  | Ok w ->
      Obs.Log.info ~tag:"dist"
        "shard %d: already certified by %s; dropping failed attempt (%s)" id
        w.Record.owner reason;
      Lease.release lease;
      `Superseded
  | Error _ ->
      let tries = Manifest.bump_retries cfg.dir id in
      if tries > cfg.max_requeues then begin
        quarantine_shard ~cfg ~owner id
          (Printf.sprintf "%s (after %d re-enqueues)" reason (tries - 1));
        Lease.release lease;
        `Quarantined
      end
      else begin
        Obs.Metrics.incr m_requeued;
        if Obs.Events.enabled () then
          Obs.Events.record
            ~detail:(Printf.sprintf "shard %d attempt %d: %s" id tries reason)
            "requeue";
        Obs.Log.warn ~tag:"dist" "shard %d re-enqueued (attempt %d/%d): %s" id
          tries cfg.max_requeues reason;
        Lease.release lease;
        `Requeued
      end

(* Drive one freshly claimed shard to a terminal local outcome.
   Returns [`Stop] only when the driver's stop condition fired. *)
let work_one ~cfg ~stop ~owner ~hb lease ~how shard m summary =
  let id = shard.Manifest.id in
  (match how with
  | `Claimed ->
      Obs.Log.info ~tag:"dist" "claimed shard %d [%d, %d)" id
        shard.Manifest.lo shard.Manifest.hi
  | `Reclaimed ->
      Obs.Log.info ~tag:"dist" "reclaimed stale shard %d [%d, %d)" id
        shard.Manifest.lo shard.Manifest.hi);
  let summary =
    {
      summary with
      claimed = summary.claimed + 1;
      reclaimed =
        (summary.reclaimed + match how with `Reclaimed -> 1 | `Claimed -> 0);
    }
  in
  Atomic.incr hb.Heartbeat.claimed;
  (match how with
  | `Reclaimed -> Atomic.incr hb.Heartbeat.reclaimed
  | `Claimed -> ());
  Atomic.set hb.Heartbeat.current_shard id;
  let finish r =
    Atomic.set hb.Heartbeat.current_shard (-1);
    r
  in
  (* abort the primary scan too when a record lands: a speculator may
     finish the shard under us, and every pair past that point is
     wasted heat *)
  let abort () = (Store.active ()).Store.exists (Manifest.done_path cfg.dir id) in
  finish
  @@
  match execute ~cfg ~stop ~abort ~hb lease shard m with
  | `Lost_lease pairs ->
      Obs.Metrics.incr m_abandoned;
      Atomic.incr hb.Heartbeat.abandoned;
      if Obs.Events.enabled () then
        Obs.Events.record ~detail:(Printf.sprintf "shard %d" id) "abandon";
      Obs.Log.warn ~tag:"dist" "lease on shard %d lost mid-scan; abandoning" id;
      ( `Continue,
        {
          summary with
          abandoned = summary.abandoned + 1;
          pairs = summary.pairs + pairs;
        } )
  | `Superseded pairs ->
      (* someone certified the shard while we were scanning it — a
         speculator, or a reclaimer that beat us after a lease blip.
         We never saved a table (that happens at certify), so the only
         file at our table path is a previous attempt's leftover or
         the winner's own certification: delete it only when the
         winner's record positively names a different file *)
      Obs.Metrics.incr m_deduped;
      Obs.Log.info ~tag:"dist"
        "shard %d certified under us mid-scan; dropping our run" id;
      (match Record.read ~dir:cfg.dir id with
      | Ok w
        when Record.table_file ~dir:cfg.dir w
             <> Manifest.table_path cfg.dir id ->
          remove_quiet (Manifest.table_path cfg.dir id)
      | Ok _ | Error _ -> ());
      Lease.release lease;
      ( `Continue,
        {
          summary with
          deduped = summary.deduped + 1;
          pairs = summary.pairs + pairs;
        } )
  | `Stopped pairs ->
      Lease.release lease;
      (`Stop, { summary with pairs = summary.pairs + pairs })
  | `Undecidable (reason, pairs) ->
      quarantine_shard ~cfg ~owner id reason;
      Atomic.incr hb.Heartbeat.quarantined;
      Lease.release lease;
      ( `Continue,
        {
          summary with
          quarantined = summary.quarantined + 1;
          pairs = summary.pairs + pairs;
        } )
  | `Failed (reason, pairs) -> (
      let summary = { summary with pairs = summary.pairs + pairs } in
      match requeue_or_quarantine ~cfg ~owner lease id reason with
      | `Superseded -> (`Continue, { summary with deduped = summary.deduped + 1 })
      | `Quarantined ->
          Atomic.incr hb.Heartbeat.quarantined;
          (`Continue, { summary with quarantined = summary.quarantined + 1 })
      | `Requeued ->
          Atomic.incr hb.Heartbeat.requeued;
          (`Continue, { summary with requeued = summary.requeued + 1 }))
  | `Scanned (cache, outcome, pairs, wall_ns) -> (
      let summary = { summary with pairs = summary.pairs + pairs } in
      let table = Manifest.table_path cfg.dir id in
      match
        certify_with_retries ~cfg ~owner ~hb ~shard ~lease ~cache ~table
          ~table_name:None ~wall_ns outcome
      with
      | Ok (`Certified written) ->
          Obs.Metrics.incr m_completed;
          Atomic.incr hb.Heartbeat.completed;
          Atomic.set hb.Heartbeat.last_checkpoint_s
            (int_of_float ((Store.active ()).Store.now ()));
          Obs.Log.info ~tag:"dist" "shard %d done: %s, %d entries" id
            (match outcome with
            | Record.Exhausted -> "exhausted"
            | Record.Found (p, q) -> Printf.sprintf "found (%d,%d)" p q)
            written;
          Lease.release lease;
          (`Continue, { summary with completed = summary.completed + 1 })
      | Ok (`Superseded (winner, fnv)) ->
          discard_duplicate ~cfg ~hb id ~our_table:table ~our_fnv:fnv winner;
          Lease.release lease;
          (`Continue, { summary with deduped = summary.deduped + 1 })
      | Error reason -> (
          match requeue_or_quarantine ~cfg ~owner lease id reason with
          | `Superseded ->
              (`Continue, { summary with deduped = summary.deduped + 1 })
          | `Quarantined ->
              Atomic.incr hb.Heartbeat.quarantined;
              (`Continue, { summary with quarantined = summary.quarantined + 1 })
          | `Requeued ->
              Atomic.incr hb.Heartbeat.requeued;
              (`Continue, { summary with requeued = summary.requeued + 1 })))

(* ----------------------------------------------- speculation (idle) *)

(* Run one speculative re-execution of a straggler-held shard under its
   secondary lease. Strictly best-effort: any failure just releases the
   spec lease and cleans up — requeue/quarantine decisions belong to
   the primary path, and a speculator must never be able to poison a
   shard its healthy-but-slow holder would have finished. *)
let run_speculation ~cfg ~stop ~owner ~hb lease (s : Manifest.shard) m summary
    =
  let id = s.Manifest.id in
  Obs.Metrics.incr m_speculated;
  Atomic.incr hb.Heartbeat.speculated;
  if Obs.Events.enabled () then
    Obs.Events.record ~detail:(Printf.sprintf "shard %d" id) "speculate";
  Obs.Log.info ~tag:"dist"
    "speculatively re-executing straggler-held shard %d [%d, %d)" id
    s.Manifest.lo s.Manifest.hi;
  let summary = { summary with speculated = summary.speculated + 1 } in
  Atomic.set hb.Heartbeat.current_shard id;
  let finish r =
    Atomic.set hb.Heartbeat.current_shard (-1);
    r
  in
  let spec_table = Manifest.spec_table_path cfg.dir id in
  let abort () =
    let st = Store.active () in
    st.Store.exists (Manifest.done_path cfg.dir id)
    || st.Store.exists (Manifest.quarantine_path cfg.dir id)
  in
  finish
  @@
  match
    (* the speculator must not inherit the throttle: it exists to
       outrun the straggler *)
    execute ~cfg:{ cfg with throttle = None } ~stop ~abort ~hb lease s m
  with
  | `Lost_lease pairs ->
      remove_quiet spec_table;
      (`Continue, { summary with pairs = summary.pairs + pairs })
  | `Superseded pairs ->
      (* the primary (or a heal) finished while we ran — mission
         accomplished, just not by us *)
      remove_quiet spec_table;
      Lease.release lease;
      (`Continue, { summary with pairs = summary.pairs + pairs })
  | `Stopped pairs ->
      remove_quiet spec_table;
      Lease.release lease;
      (`Stop, { summary with pairs = summary.pairs + pairs })
  | `Undecidable (reason, pairs) | `Failed (reason, pairs) ->
      Obs.Log.info ~tag:"dist" "speculation on shard %d dropped: %s" id reason;
      remove_quiet spec_table;
      Lease.release lease;
      (`Continue, { summary with pairs = summary.pairs + pairs })
  | `Scanned (cache, outcome, pairs, wall_ns) -> (
      let summary = { summary with pairs = summary.pairs + pairs } in
      match
        certify_with_retries ~cfg ~owner ~hb ~shard:s ~lease ~cache
          ~table:spec_table
          ~table_name:(Some (Manifest.spec_table_name id))
          ~wall_ns outcome
      with
      | Ok (`Certified written) ->
          Obs.Metrics.incr m_completed;
          Obs.Metrics.incr m_spec_wins;
          Atomic.incr hb.Heartbeat.completed;
          Atomic.incr hb.Heartbeat.spec_wins;
          Atomic.set hb.Heartbeat.last_checkpoint_s
            (int_of_float ((Store.active ()).Store.now ()));
          Obs.Log.info ~tag:"dist"
            "speculation won shard %d: %d entries certified ahead of the \
             straggler" id written;
          Lease.release lease;
          ( `Continue,
            {
              summary with
              completed = summary.completed + 1;
              spec_wins = summary.spec_wins + 1;
            } )
      | Ok (`Superseded (winner, fnv)) ->
          discard_duplicate ~cfg ~hb id ~our_table:spec_table ~our_fnv:fnv
            winner;
          Lease.release lease;
          (`Continue, { summary with deduped = summary.deduped + 1 })
      | Error reason ->
          Obs.Log.info ~tag:"dist" "speculation on shard %d dropped: %s" id
            reason;
          remove_quiet spec_table;
          Lease.release lease;
          (`Continue, summary))

(* Pick at most one straggler-held shard and speculate on it. The
   candidate set comes from {!Top.aggregate} over the live heartbeats —
   a shard qualifies only if it is Leased *fresh* (a stale lease is
   reclaimed through the normal path, no speculation needed), held by
   someone else, and its holder's progress rate is a robust-median
   outlier. *)
let speculate_one ~cfg ~stop ~owner ~hb m summary =
  let st = Store.active () in
  let observed, _ = Heartbeat.list ~dir:cfg.dir in
  let states =
    Array.to_list
      (Array.map
         (fun s -> (s, Manifest.state ~dir:cfg.dir ~ttl:cfg.ttl s))
         m.Manifest.shards)
  in
  let t =
    Top.aggregate ~now:(st.Store.now ()) ~model:m.Manifest.model ~states
      observed
  in
  let candidate id =
    match List.find_opt (fun (s, _) -> s.Manifest.id = id) states with
    | Some (s, Manifest.Leased) -> (
        match Lease.holder (Manifest.lease_path cfg.dir id) with
        | Some (holder, _) when holder <> owner -> Some s
        | _ -> None)
    | _ -> None
  in
  let rec try_ids = function
    | [] -> (`Continue, summary, false)
    | id :: rest -> (
        match candidate id with
        | None -> try_ids rest
        | Some s -> (
            match
              Lease.try_claim ~ttl:cfg.ttl ~owner
                (Manifest.spec_lease_path cfg.dir id)
            with
            | `Held -> try_ids rest
            | `Claimed lease | `Reclaimed lease ->
                let action, summary =
                  run_speculation ~cfg ~stop ~owner ~hb lease s m summary
                in
                (action, summary, true)))
  in
  let ids =
    match t.Top.stragglers with
    | _ :: _ as ids -> ids
    | [] when t.Top.shards_pending = 0 ->
        (* Drain-tail backup: the robust cut needs at least three
           progressing holders, but at the tail there may be exactly
           one — the straggler. With nothing left to claim, back up
           {e any} fresh shard held by someone else (the classic
           MapReduce tail speculation). Sound either way (decision
           10), and the secondary lease bounds the waste to one
           duplicate scan per tail window. *)
        List.filter_map
          (fun (r : Top.worker_row) ->
            if r.Top.fresh && r.Top.hb.Heartbeat.v_owner <> owner then
              r.Top.hb.Heartbeat.v_current_shard
            else None)
          t.Top.workers
        |> List.sort_uniq compare
    | [] -> []
  in
  try_ids ids

(* Elastic join: a worker arriving in an already-crowded fleet (more
   fresh heartbeats than pending shards) staggers its first claim sweep
   by a jittered beat instead of piling onto the contention. Purely a
   throughput courtesy — claims stay safe at any arrival rate. *)
let join_stagger ~cfg ~owner =
  let st = Store.active () in
  let observed, _ = Heartbeat.list ~dir:cfg.dir in
  let now = st.Store.now () in
  let fresh =
    List.length
      (List.filter
         (fun (o : Heartbeat.observed) ->
           let age =
             match o.Heartbeat.ob_mtime with
             | Some m -> now -. m
             | None -> now -. o.Heartbeat.ob_view.Heartbeat.v_now
           in
           age <= Top.default_stale_after)
         observed)
  in
  match Manifest.load ~dir:cfg.dir with
  | Error _ -> ()
  | Ok m ->
      let pending =
        Array.fold_left
          (fun acc s ->
            match Manifest.state ~dir:cfg.dir ~ttl:cfg.ttl s with
            | Manifest.Pending -> acc + 1
            | _ -> acc)
          0 m.Manifest.shards
      in
      if fresh > pending && pending >= 0 then begin
        let cap = Float.min (cfg.ttl /. 2.) 2.0 in
        let j =
          Rt.Backoff.stream
            ~seed:(Hashtbl.hash owner land 0x3fffffff)
            ~base_s:0.05 ~max_s:cap ()
        in
        let d = Float.min cap (Rt.Backoff.next j *. float_of_int fresh) in
        Obs.Log.info ~tag:"dist"
          "fleet crowded (%d fresh workers, %d pending shards); staggering \
           join by %.2fs" fresh pending d;
        Unix.sleepf d
      end

let run ?(stop = fun () -> false) cfg =
  (* the manifest read itself must survive a transient store fault:
     losing the whole worker to one EIO blip defeats the fleet *)
  match
    Rt.Backoff.retry ~attempts:4 ~base_s:0.05 ~max_s:0.5 (fun () ->
        Manifest.load ~dir:cfg.dir)
  with
  | Error msg -> Error msg
  | Ok m ->
      let owner = Lease.default_owner () in
      let hb = Heartbeat.make_stats ~owner in
      (* Live advertisement: the tick thread owns all heartbeat I/O (and
         the flight dump, so a SIGKILL loses at most one tick's worth of
         post-mortem). The loop below only ever stores into [hb]'s
         atomics. *)
      let publish ~seq =
        if cfg.heartbeat > 0. then
          Heartbeat.publish ~dir:cfg.dir (Heartbeat.view_of_stats ~seq hb);
        match cfg.flight with
        | Some path -> Obs.Events.dump ~path
        | None -> ()
      in
      let ticker =
        if cfg.heartbeat > 0. || cfg.flight <> None then
          let interval = if cfg.heartbeat > 0. then cfg.heartbeat else 2.0 in
          Some (Obs.Telemetry.ticker ~interval publish)
        else None
      in
      join_stagger ~cfg ~owner;
      let n = Array.length m.Manifest.shards in
      (* start the sweep at an owner-dependent offset so N workers
         launched together don't all stampede shard 0 *)
      let offset = Hashtbl.hash owner mod n in
      let poll = Float.min (cfg.ttl /. 4.) 0.25 in
      (* idle-wait pacing: decorrelated jitter (seeded by owner, so the
         fleet decorrelates but each worker replays deterministically),
         reset to the base after every successful claim *)
      let pace =
        Rt.Backoff.stream
          ~seed:(Hashtbl.hash owner land 0x3fffffff)
          ~base_s:(Float.min poll 0.05) ~max_s:poll ()
      in
      let should_stop () =
        stop () || Rt.Deadline.expired cfg.deadline
        || Rt.Signal.pending () <> None
      in
      let rec loop summary =
        if should_stop () then Ok summary
        else begin
          let claimable = ref [] in
          let busy = ref false in
          for i = 0 to n - 1 do
            let s = m.Manifest.shards.((i + offset) mod n) in
            match Manifest.state ~dir:cfg.dir ~ttl:cfg.ttl s with
            | Manifest.Pending -> claimable := s :: !claimable
            | Manifest.Leased -> busy := true
            | Manifest.Done | Manifest.Quarantined -> ()
          done;
          match List.rev !claimable with
          | [] ->
              if not !busy then Ok summary (* every shard is terminal *)
              else begin
                (* someone else holds the remaining work; sweep dead
                   reclaimers' tombstones, then either speculate on a
                   straggler or wait for the holders to finish or go
                   stale *)
                ignore (Lease.sweep_tombstones ~dir:cfg.dir ~ttl:cfg.ttl);
                if cfg.speculate then begin
                  match speculate_one ~cfg ~stop ~owner ~hb m summary with
                  | `Stop, summary, _ -> Ok summary
                  | `Continue, summary, progressed ->
                      if not progressed then
                        Unix.sleepf (Rt.Backoff.next pace);
                      loop summary
                end
                else begin
                  Unix.sleepf (Rt.Backoff.next pace);
                  loop summary
                end
              end
          | candidates -> (
              (* claim the first shard that will have us *)
              let rec claim = function
                | [] -> `None
                | s :: rest -> (
                    match
                      Rt.Fault.fire fp_claim;
                      Lease.try_claim ~ttl:cfg.ttl ~owner
                        (Manifest.lease_path cfg.dir s.Manifest.id)
                    with
                    | exception Rt.Fault.Injected _ ->
                        Atomic.incr hb.Heartbeat.faults;
                        claim rest
                    | `Held -> claim rest
                    | `Claimed lease -> `Go (lease, `Claimed, s)
                    | `Reclaimed lease -> `Go (lease, `Reclaimed, s))
              in
              match claim candidates with
              | `None ->
                  (* all candidates were claimed under us: back off a
                     jittered beat and rescan *)
                  Unix.sleepf (Rt.Backoff.next pace);
                  loop summary
              | `Go (lease, how, s) ->
                  Rt.Backoff.reset pace;
                  if
                    (* the shard may have been finished by a stale
                       holder between our state snapshot and the claim *)
                    (Store.active ()).Store.exists
                      (Manifest.done_path cfg.dir s.Manifest.id)
                    || (Store.active ()).Store.exists
                         (Manifest.quarantine_path cfg.dir s.Manifest.id)
                  then begin
                    Lease.release lease;
                    loop summary
                  end
                  else begin
                    match
                      work_one ~cfg ~stop ~owner ~hb lease ~how s m summary
                    with
                    | `Stop, summary -> Ok summary
                    | `Continue, summary -> loop summary
                  end)
        end
      in
      (* the final heartbeat publishes synchronously on the way out
         (Telemetry.stop ticks once more after the join), so the last
         snapshot on disk agrees with the summary we return *)
      Fun.protect
        ~finally:(fun () -> Option.iter Obs.Telemetry.stop ticker)
        (fun () -> loop zero_summary)
