(* Chunk claims mirror [t.chunks] exactly; the histogram records the
   guided self-scheduling size decay, and the per-worker vector shows
   how evenly the work stealing spread the items. The fault counters
   mirror the supervision events: item retries, requeues, absorbed
   worker crashes, and items abandoned after exhausting their retries. *)
let m_chunks = Obs.Metrics.counter "scheduler.chunks"
let m_chunk_size = Obs.Metrics.histogram "scheduler.chunk_size"
let m_chunk_ns = Obs.Metrics.timer "scheduler.chunk_ns"
let m_items = Obs.Metrics.vec ~buckets:64 "scheduler.items_by_worker"
let m_faults = Obs.Metrics.counter "scheduler.item_faults"
let m_requeues = Obs.Metrics.counter "scheduler.requeues"
let m_crashes = Obs.Metrics.counter "scheduler.worker_crashes"
let m_abandoned = Obs.Metrics.counter "scheduler.abandoned_items"

(* Injection sites: [scheduler.item] fires inside the per-item guard
   (exercising retry-then-requeue), [scheduler.claim] fires outside it
   (killing the whole worker, exercising domain-crash absorption). *)
let fp_item = Rt.Fault.point "scheduler.item"
let fp_claim = Rt.Fault.point "scheduler.claim"

type t = {
  next : int Atomic.t;
  limit : int Atomic.t;
  completed : int Atomic.t;
  chunks : int Atomic.t;
  jobs : int;
  min_chunk : int;
  max_chunk : int;
  retries : int;
  stop : bool Atomic.t;
  faults : int Atomic.t;
  crashes : int Atomic.t;
  mu : Mutex.t;
  (* both under [mu]: items awaiting a re-attempt (with their failure
     count so far), and items that exhausted their retries *)
  mutable requeued : (int * int) list;
  mutable dead : (int * int * exn) list;
  warn_budget : int Atomic.t;
}

let create ?(min_chunk = 1) ?(max_chunk = 256) ?(retries = 3) ~jobs ~total () =
  if total < 0 then invalid_arg "Scheduler.create: negative total";
  if min_chunk < 1 || max_chunk < min_chunk then
    invalid_arg "Scheduler.create: need 1 <= min_chunk <= max_chunk";
  if retries < 0 then invalid_arg "Scheduler.create: negative retries";
  {
    next = Atomic.make 0;
    limit = Atomic.make total;
    completed = Atomic.make 0;
    chunks = Atomic.make 0;
    jobs = max 1 jobs;
    min_chunk;
    max_chunk;
    retries;
    stop = Atomic.make false;
    faults = Atomic.make 0;
    crashes = Atomic.make 0;
    mu = Mutex.create ();
    requeued = [];
    dead = [];
    warn_budget = Atomic.make 5;
  }

let rec atomic_min a v =
  let c = Atomic.get a in
  if v < c && not (Atomic.compare_and_set a c v) then atomic_min a v

let shrink_limit t v = atomic_min t.limit (max 0 v)
let request_stop t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop
let limit t = Atomic.get t.limit
let completed t = Atomic.get t.completed
let chunks t = Atomic.get t.chunks
let faults t = Atomic.get t.faults
let crashes t = Atomic.get t.crashes

(* Guided self-scheduling: each claim takes a 1/(2·jobs) share of the
   remaining index space, clamped to [min_chunk, max_chunk]. Early claims
   are large (amortizing the atomic traffic), the tail is fine-grained
   (so no worker is left holding a big chunk while the others idle). *)
let chunk_size t =
  let remaining = Atomic.get t.limit - Atomic.get t.next in
  min t.max_chunk (max t.min_chunk (remaining / (2 * t.jobs)))

let take_requeued t =
  Mutex.protect t.mu (fun () ->
      match t.requeued with
      | [] -> None
      | x :: rest ->
          t.requeued <- rest;
          Some x)

let has_requeued t = Mutex.protect t.mu (fun () -> t.requeued <> [])

(* A faulted item: retry by requeueing (any worker may pick it up) until
   its failure count exceeds the bound, then record it as dead — the
   original exception reraises once the rest of the space has drained. *)
let record_fault t item failures e =
  Atomic.incr t.faults;
  Obs.Metrics.incr m_faults;
  if Obs.Events.enabled () then
    Obs.Events.record
      ~detail:(Printf.sprintf "item %d attempt %d: %s" item failures
                 (Printexc.to_string e))
      "retry";
  let give_up = failures > t.retries in
  if Atomic.fetch_and_add t.warn_budget (-1) > 0 then
    Obs.Log.warn ~tag:"sched" "item %d attempt %d raised %s%s" item failures
      (Printexc.to_string e)
      (if give_up then " (giving up)" else " (requeued)")
  else
    Obs.Log.debug ~tag:"sched" "item %d attempt %d raised %s" item failures
      (Printexc.to_string e);
  Mutex.protect t.mu (fun () ->
      if give_up then begin
        Obs.Metrics.incr m_abandoned;
        t.dead <- (item, failures, e) :: t.dead
      end
      else begin
        Obs.Metrics.incr m_requeues;
        t.requeued <- (item, failures) :: t.requeued
      end)

let run_item t f w item ~failures =
  match
    Rt.Fault.fire fp_item;
    f item
  with
  | () ->
      Atomic.incr t.completed;
      Obs.Metrics.vec_incr m_items w
  | exception e -> record_fault t item (failures + 1) e

(* Run [worker 0 .. worker (jobs-1)]: jobs − 1 on fresh domains, worker 0
   inline. A worker's escaping exception goes to [on_crash] on the
   calling domain (at join time for spawned workers) instead of killing
   the run; returns the number of crashed workers. *)
let spawn_join ~jobs ~on_crash worker =
  let guard w run =
    match run () with
    | () -> 0
    | exception e ->
        on_crash ~worker:w e;
        1
  in
  let spawned =
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let inline = guard 0 (fun () -> worker 0) in
  List.fold_left ( + ) inline
    (List.mapi (fun i d -> guard (i + 1) (fun () -> Domain.join d)) spawned)

let run ?tick ?stop t f =
  let should_stop =
    match stop with
    | None -> fun () -> Atomic.get t.stop
    | Some g ->
        fun () ->
          Atomic.get t.stop
          ||
          (if g () then Atomic.set t.stop true;
           Atomic.get t.stop)
  in
  let worker w =
    let rec loop () =
      if should_stop () then ()
      else
        match take_requeued t with
        | Some (item, failures) ->
            (* a shrink may have abandoned the item since it first ran;
               its result can no longer matter *)
            if item < Atomic.get t.limit then run_item t f w item ~failures;
            loop ()
        | None ->
            Rt.Fault.fire fp_claim;
            let size = chunk_size t in
            let lo = Atomic.fetch_and_add t.next size in
            if lo < Atomic.get t.limit then begin
              Atomic.incr t.chunks;
              Obs.Metrics.incr m_chunks;
              Obs.Metrics.observe m_chunk_size size;
              Obs.Trace.with_span "chunk"
                ~args:(fun () ->
                  [ ("lo", Obs.Trace.I lo); ("size", Obs.Trace.I size);
                    ("worker", Obs.Trace.I w) ])
                (fun () ->
                  Obs.Metrics.time m_chunk_ns (fun () ->
                      let hi = lo + size in
                      let i = ref lo in
                      (* [limit] may shrink while we work through the
                         chunk; re-reading it per item makes cancellation
                         effective at item granularity *)
                      while
                        !i < hi && !i < Atomic.get t.limit
                        && not (should_stop ())
                      do
                        run_item t f w !i ~failures:0;
                        incr i
                      done));
              (match tick with Some g when w = 0 -> g () | _ -> ());
              loop ()
            end
            else if has_requeued t then loop ()
    in
    loop ()
  in
  let on_crash ~worker:w e =
    Atomic.incr t.crashes;
    Obs.Metrics.incr m_crashes;
    Obs.Log.warn ~tag:"sched"
      "worker %d crashed (%s); continuing on the remaining domains" w
      (Printexc.to_string e)
  in
  ignore (spawn_join ~jobs:t.jobs ~on_crash worker);
  (* Degraded drain: if crashes left unclaimed or requeued work behind
     (in the worst case every domain died), the calling domain finishes
     the space itself. Claim-path faults can crash this pass too, so it
     retries — but only a bounded number of consecutive crashes, to keep
     a 100%-fault-rate configuration from spinning forever. *)
  let consecutive_crashes = ref 0 in
  let unfinished () =
    (not (should_stop ()))
    && (Atomic.get t.next < Atomic.get t.limit || has_requeued t)
  in
  while unfinished () && !consecutive_crashes < 64 do
    match worker 0 with
    | () -> if unfinished () then incr consecutive_crashes
    | exception e ->
        incr consecutive_crashes;
        on_crash ~worker:0 e
  done;
  (* One poisoned item must not punch a silent hole in an exhaustive
     scan: reraise its original exception now that everything else has
     drained (smallest item for determinism). *)
  match
    Mutex.protect t.mu (fun () ->
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) t.dead)
  with
  | [] -> ()
  | (item, failures, e) :: _ ->
      Obs.Log.err ~tag:"sched" "item %d failed all %d attempts: %s" item
        failures (Printexc.to_string e);
      raise e
