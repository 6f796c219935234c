(* The work-stealing chunker: every index in [0, total) is executed
   exactly once, across any worker count; shrinking the limit abandons
   exactly the unstarted indices at or above it; worker exceptions
   propagate. *)

open Efgame

let check_int = Alcotest.(check int)

(* run over [0, total) with [jobs] workers and return the per-index
   execution counts *)
let run_counting ?min_chunk ?max_chunk ~jobs ~total () =
  let counts = Array.init total (fun _ -> Atomic.make 0) in
  let sched = Scheduler.create ?min_chunk ?max_chunk ~jobs ~total () in
  Scheduler.run sched (fun i -> Atomic.incr counts.(i));
  (sched, Array.map Atomic.get counts)

let test_each_index_once () =
  List.iter
    (fun (jobs, total) ->
      let sched, counts = run_counting ~jobs ~total () in
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "jobs=%d total=%d index %d" jobs total i) 1 c)
        counts;
      check_int
        (Printf.sprintf "jobs=%d total=%d completed" jobs total)
        total
        (Scheduler.completed sched))
    [ (1, 0); (1, 1); (1, 100); (2, 1); (2, 97); (3, 256); (3, 1000) ]

let test_chunk_bounds_respected () =
  (* min_chunk = max_chunk = c forces fixed-size chunks, so the claim
     count is exactly ceil(total / c) *)
  let total = 103 and c = 10 in
  let sched, counts = run_counting ~min_chunk:c ~max_chunk:c ~jobs:1 ~total () in
  Array.iter (fun n -> check_int "count" 1 n) counts;
  check_int "chunks" ((total + c - 1) / c) (Scheduler.chunks sched)

let test_shrink_abandons_tail () =
  (* shrink as soon as index [cut] runs: everything below [cut] must
     still complete, nothing at or above [cut] may start afterwards *)
  List.iter
    (fun jobs ->
      let total = 400 and cut = 37 in
      let counts = Array.init total (fun _ -> Atomic.make 0) in
      let sched = Scheduler.create ~jobs ~total () in
      Scheduler.run sched (fun i ->
          Atomic.incr counts.(i);
          if i = cut then Scheduler.shrink_limit sched cut);
      for i = 0 to cut - 1 do
        check_int
          (Printf.sprintf "jobs=%d below cut index %d" jobs i)
          1
          (Atomic.get counts.(i))
      done;
      check_int (Printf.sprintf "jobs=%d final limit" jobs) cut
        (Scheduler.limit sched);
      (* at item granularity some indices ≥ cut may already have run
         (including cut itself), but none more than once *)
      Array.iteri
        (fun i c ->
          let c = Atomic.get c in
          if c > 1 then
            Alcotest.failf "jobs=%d index %d ran %d times" jobs i c)
        counts)
    [ 1; 2; 3 ]

let test_shrink_is_monotone_min () =
  let sched = Scheduler.create ~jobs:1 ~total:100 () in
  Scheduler.shrink_limit sched 50;
  Scheduler.shrink_limit sched 80;
  check_int "shrink to a larger value is a no-op" 50 (Scheduler.limit sched);
  Scheduler.shrink_limit sched 20;
  check_int "shrink composes to the min" 20 (Scheduler.limit sched)

let test_worker_exception_propagates () =
  List.iter
    (fun jobs ->
      let sched = Scheduler.create ~jobs ~total:50 () in
      match Scheduler.run sched (fun i -> if i = 17 then failwith "boom") with
      | () -> Alcotest.fail "expected the worker exception to reraise"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)
    [ 1; 2 ]

(* ------------------------------------------------------- supervision *)

let test_supervised_workers_absorb_crashes () =
  (* one claim per item, so the claim-path fault point fires before
     every item: on one domain the seeded fault pattern is fixed, and the
     crashed inline worker is absorbed and restarted until the space is
     drained, each index exactly once *)
  Fun.protect ~finally:Rt.Fault.disable (fun () ->
      Rt.Fault.configure ~seed:7 ~rate:0.05;
      let total = 200 in
      let counts = Array.init total (fun _ -> Atomic.make 0) in
      let sched =
        Scheduler.create ~min_chunk:1 ~max_chunk:1 ~retries:10 ~jobs:1 ~total ()
      in
      Scheduler.run sched (fun i -> Atomic.incr counts.(i));
      Rt.Fault.disable ();
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "index %d exactly once" i) 1 (Atomic.get c))
        counts;
      check_int "completed" total (Scheduler.completed sched);
      Alcotest.(check bool) "claim-path crashes absorbed" true
        (Scheduler.crashes sched > 0))

let test_flaky_item_retried () =
  (* items ≡ 0 (mod 7) fail their first two attempts, then succeed: with
     the default retry bound all 50 items complete; flaky ones ran three
     times, the rest once *)
  let total = 50 in
  let attempts = Array.init total (fun _ -> Atomic.make 0) in
  let sched = Scheduler.create ~jobs:2 ~total () in
  Scheduler.run sched (fun i ->
      let a = 1 + Atomic.fetch_and_add attempts.(i) 1 in
      if i mod 7 = 0 && a <= 2 then failwith "transient");
  check_int "all items completed" total (Scheduler.completed sched);
  Array.iteri
    (fun i a ->
      check_int
        (Printf.sprintf "attempts at %d" i)
        (if i mod 7 = 0 then 3 else 1)
        (Atomic.get a))
    attempts;
  (* 8 flaky items × 2 transient failures *)
  check_int "fault count" 16 (Scheduler.faults sched)

let test_poisoned_item_reraises_after_drain () =
  (* a permanently failing item exhausts its retries; its original
     exception reraises only after the rest of the space drained *)
  let total = 40 and poison = 13 in
  let attempts = Array.init total (fun _ -> Atomic.make 0) in
  let sched = Scheduler.create ~retries:2 ~jobs:1 ~total () in
  (match
     Scheduler.run sched (fun i ->
         Atomic.incr attempts.(i);
         if i = poison then failwith "poison")
   with
  | () -> Alcotest.fail "expected the poisoned item's exception"
  | exception Failure msg -> Alcotest.(check string) "original exn" "poison" msg);
  check_int "poisoned item ran retries+1 times" 3 (Atomic.get attempts.(poison));
  Array.iteri
    (fun i a ->
      if i <> poison then
        check_int (Printf.sprintf "item %d ran once" i) 1 (Atomic.get a))
    attempts;
  check_int "everything else completed" (total - 1) (Scheduler.completed sched)

let test_request_stop_winds_down () =
  (* request_stop from inside an item: the worker finishes the current
     item and claims nothing further *)
  let ran = ref 0 in
  let sched =
    Scheduler.create ~min_chunk:1 ~max_chunk:1 ~jobs:1 ~total:1000 ()
  in
  Scheduler.run sched (fun _ ->
      incr ran;
      if !ran = 10 then Scheduler.request_stop sched);
  Alcotest.(check bool) "stopped" true (Scheduler.stopped sched);
  check_int "ran exactly to the stop" 10 !ran;
  check_int "completed matches" 10 (Scheduler.completed sched)

let test_stop_callback () =
  (* an external stop predicate (the CLI's signal latch) halts the scan
     long before the space is exhausted *)
  let total = 100_000 in
  let sched = Scheduler.create ~jobs:2 ~total () in
  let stop () = Scheduler.completed sched >= 50 in
  Scheduler.run ~stop sched (fun _ -> ());
  Alcotest.(check bool) "stopped" true (Scheduler.stopped sched);
  Alcotest.(check bool) "halted early" true (Scheduler.completed sched < total)

let test_fault_injected_scan_completes () =
  (* with deterministic faults on both injection sites (item retries and
     worker-killing claim crashes), a generous retry bound still yields
     an exactly-once execution of the whole space *)
  List.iter
    (fun jobs ->
      Fun.protect ~finally:Rt.Fault.disable (fun () ->
          Rt.Fault.configure ~seed:42 ~rate:0.02;
          let total = 500 in
          let counts = Array.init total (fun _ -> Atomic.make 0) in
          let sched = Scheduler.create ~retries:10 ~jobs ~total () in
          Scheduler.run sched (fun i -> Atomic.incr counts.(i));
          Rt.Fault.disable ();
          Array.iteri
            (fun i c ->
              check_int
                (Printf.sprintf "jobs=%d index %d exactly once" jobs i)
                1 (Atomic.get c))
            counts;
          check_int
            (Printf.sprintf "jobs=%d completed" jobs)
            total
            (Scheduler.completed sched);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d saw injected faults" jobs)
            true
            (Scheduler.faults sched + Scheduler.crashes sched > 0)))
    [ 1; 2 ]

let test_tick_runs_between_chunks () =
  (* 1-item chunks over 20 items ⇒ the inline worker ticks between its
     claims; with jobs = 1 that is ≥ once (it claims everything) *)
  let ticks = ref 0 in
  let sched = Scheduler.create ~min_chunk:1 ~max_chunk:1 ~jobs:1 ~total:20 () in
  Scheduler.run ~tick:(fun () -> incr ticks) sched (fun _ -> ());
  if !ticks = 0 then Alcotest.fail "tick never ran";
  check_int "completed" 20 (Scheduler.completed sched)

let tests =
  ( "efgame-scheduler",
    [
      Alcotest.test_case "each index exactly once, any jobs" `Quick
        test_each_index_once;
      Alcotest.test_case "fixed chunk size ⇒ ceil(total/c) claims" `Quick
        test_chunk_bounds_respected;
      Alcotest.test_case "shrink keeps everything below the cut" `Quick
        test_shrink_abandons_tail;
      Alcotest.test_case "shrink is an atomic monotone min" `Quick
        test_shrink_is_monotone_min;
      Alcotest.test_case "worker exceptions reraise" `Quick
        test_worker_exception_propagates;
      Alcotest.test_case "tick fires between inline chunks" `Quick
        test_tick_runs_between_chunks;
      Alcotest.test_case "supervised workers absorb crashes" `Quick
        test_supervised_workers_absorb_crashes;
      Alcotest.test_case "flaky items are retried to completion" `Quick
        test_flaky_item_retried;
      Alcotest.test_case "poisoned items reraise after the drain" `Quick
        test_poisoned_item_reraises_after_drain;
      Alcotest.test_case "request_stop winds the scan down" `Quick
        test_request_stop_winds_down;
      Alcotest.test_case "external stop predicate halts early" `Quick
        test_stop_callback;
      Alcotest.test_case "fault-injected scans still run exactly once" `Quick
        test_fault_injected_scan_completes;
    ] )
