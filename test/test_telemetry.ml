(* Tests for the live-telemetry layer: the flight recorder ring wraps
   at capacity and survives to a parseable dump; [Top.aggregate]'s
   fleet row is exactly the field-wise sum of the per-worker heartbeat
   snapshots (the qcheck property [shard top] relies on); corrupt or
   truncated heartbeat files are skipped with a warning, never a
   crash; log timestamps are parseable ISO-8601; and timer percentiles
   land inside the right log₂-ns buckets. *)

let tmpdir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 100000))
  in
  Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let test_flight_ring_wraps () =
  Obs.Events.enable ~capacity:8 ();
  for i = 1 to 20 do
    Obs.Events.record ~detail:(string_of_int i) "tick"
  done;
  let evs = Obs.Events.recent () in
  Alcotest.(check int) "ring keeps exactly capacity" 8 (List.length evs);
  Alcotest.(check int) "all records counted" 20 (Obs.Events.recorded ());
  (* the survivors are the newest 8, oldest first *)
  Alcotest.(check (list string))
    "newest events survive, in order"
    (List.init 8 (fun i -> string_of_int (13 + i)))
    (List.map (fun (e : Obs.Events.event) -> e.detail) evs);
  List.iteri
    (fun i (e : Obs.Events.event) ->
      Alcotest.(check int) "seq is dense" (12 + i) e.seq)
    evs;
  (* the dump records what the ring had to drop *)
  let w = Obs.Jsonw.create () in
  Obs.Events.write_json w;
  Obs.Events.disable ();
  match Obs.Jsonr.parse (Obs.Jsonw.contents w) with
  | Error e -> Alcotest.failf "flight JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option string))
        "schema" (Some "efgame-flight/1")
        (Obs.Jsonr.mem_string "schema" j);
      Alcotest.(check (option int)) "dropped" (Some 12)
        (Obs.Jsonr.mem_int "dropped" j);
      Alcotest.(check (option int))
        "events in dump" (Some 8)
        (Option.map List.length (Obs.Jsonr.mem_list "events" j))

let test_flight_disabled_noop () =
  Obs.Events.disable ();
  Obs.Events.record ~detail:"ignored" "tick";
  Alcotest.(check (list string))
    "disabled recorder keeps nothing" []
    (List.map
       (fun (e : Obs.Events.event) -> e.kind)
       (Obs.Events.recent ()));
  (* dump is a no-op, not a crash, even with an unwritable path *)
  Obs.Events.dump ~path:"/nonexistent-dir/flight.json"

(* ------------------------------------------------------------------ *)
(* Top.aggregate — the fleet row is the sum of the worker rows *)

let view_of_ints ~owner ~now:v_now a : Dist.Heartbeat.view =
  {
    v_owner = owner;
    v_pid = 1;
    v_host = "test";
    v_started = 0.;
    v_now;
    v_seq = 1;
    v_pairs = a.(0);
    v_completed = a.(1);
    v_claimed = a.(2);
    v_reclaimed = a.(3);
    v_abandoned = a.(4);
    v_requeued = a.(5);
    v_quarantined = a.(6);
    v_cache_hits = a.(7);
    v_cache_misses = a.(8);
    v_faults = a.(9);
    v_retries = a.(10);
    v_current_shard = None;
    v_last_checkpoint = None;
    v_cost_done = 0;
  }

let prop_top_is_sum_of_workers =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 8)
        (pair
           (array_size (return 11) (int_bound 10_000))
           (map (fun f -> Float.abs f) (float_range 0. 60.))))
  in
  let arb =
    QCheck.make gen
      ~print:
        (QCheck.Print.list
           (QCheck.Print.pair
              (QCheck.Print.array string_of_int)
              string_of_float))
  in
  QCheck.Test.make ~name:"shard top fleet row = Σ worker heartbeats" ~count:100
    arb (fun specs ->
      let now = 1000. in
      let views =
        List.mapi
          (fun i (a, age) ->
            view_of_ints
              ~owner:(Printf.sprintf "w%02d" i)
              ~now:(now -. age) a)
          specs
      in
      let t =
        Dist.Top.aggregate ~now
          (List.map
             (fun v -> { Dist.Heartbeat.ob_view = v; ob_mtime = None })
             views)
      in
      let sum f = List.fold_left (fun acc v -> acc + f v) 0 views in
      let open Dist.Heartbeat in
      List.length t.Dist.Top.workers = List.length views
      && t.Dist.Top.fleet_pairs = sum (fun v -> v.v_pairs)
      && t.Dist.Top.fleet_completed = sum (fun v -> v.v_completed)
      && t.Dist.Top.fleet_claimed = sum (fun v -> v.v_claimed)
      && t.Dist.Top.fleet_reclaimed = sum (fun v -> v.v_reclaimed)
      && t.Dist.Top.fleet_abandoned = sum (fun v -> v.v_abandoned)
      && t.Dist.Top.fleet_requeued = sum (fun v -> v.v_requeued)
      && t.Dist.Top.fleet_quarantined = sum (fun v -> v.v_quarantined)
      && t.Dist.Top.fleet_cache_hits = sum (fun v -> v.v_cache_hits)
      && t.Dist.Top.fleet_cache_misses = sum (fun v -> v.v_cache_misses)
      && t.Dist.Top.fleet_faults = sum (fun v -> v.v_faults)
      && t.Dist.Top.fleet_retries = sum (fun v -> v.v_retries)
      && (t.Dist.Top.fleet_pairs = 0
         || Float.abs
              (List.fold_left
                 (fun acc (r : Dist.Top.worker_row) -> acc +. r.share)
                 0. t.Dist.Top.workers
              -. 1.)
            < 1e-6))

let test_top_states_and_eta () =
  let shard id lo hi : Dist.Manifest.shard = { id; lo; hi } in
  let states =
    [
      (shard 0 0 100, Dist.Manifest.Done);
      (shard 1 100 250, Dist.Manifest.Leased);
      (shard 2 250 300, Dist.Manifest.Pending);
      (shard 3 300 310, Dist.Manifest.Quarantined);
    ]
  in
  (* one fresh worker at exactly 50 pairs/s: 100 pairs over 2 s, and
     the (q+1)^2 cost of those pairs *)
  let v =
    {
      (view_of_ints ~owner:"w" ~now:1000. (Array.make 11 0)) with
      v_started = 998.;
      v_pairs = 100;
      v_cost_done = int_of_float (Dist.Cost.window_cost 0 100);
    }
  in
  let t =
    Dist.Top.aggregate ~now:1000. ~states
      [ { Dist.Heartbeat.ob_view = v; ob_mtime = None } ]
  in
  Alcotest.(check int) "pending" 1 t.Dist.Top.shards_pending;
  Alcotest.(check int) "leased" 1 t.Dist.Top.shards_leased;
  Alcotest.(check int) "done" 1 t.Dist.Top.shards_done;
  Alcotest.(check int) "quarantined" 1 t.Dist.Top.shards_quarantined;
  Alcotest.(check int) "total pairs" 310 t.Dist.Top.total_pairs;
  Alcotest.(check int) "done pairs" 100 t.Dist.Top.done_pairs;
  Alcotest.(check int) "remaining = leased + pending" 200
    t.Dist.Top.remaining_pairs;
  Alcotest.(check (float 1e-9)) "rate" 50. t.Dist.Top.rate;
  let cost_rate = float_of_int v.Dist.Heartbeat.v_cost_done /. 2. in
  match t.Dist.Top.eta_s with
  | Some eta ->
      Alcotest.(check (float 1e-6)) "eta = remaining cost / cost rate"
        (Dist.Cost.window_cost 100 300 /. cost_rate) eta
  | None -> Alcotest.fail "expected an ETA"

(* ------------------------------------------------------------------ *)
(* Heartbeat files: roundtrip, and corruption tolerance *)

let test_heartbeat_roundtrip () =
  let dir = tmpdir "hb" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Dist.Heartbeat.make_stats ~owner:"host:1:abc" in
      Atomic.set s.Dist.Heartbeat.pairs 1234;
      Atomic.set s.Dist.Heartbeat.completed 3;
      Atomic.set s.Dist.Heartbeat.cache_hits 10;
      Atomic.set s.Dist.Heartbeat.cache_misses 30;
      Atomic.set s.Dist.Heartbeat.current_shard 7;
      Atomic.set s.Dist.Heartbeat.last_checkpoint_s 999;
      let v = Dist.Heartbeat.view_of_stats ~now:1000. ~seq:5 s in
      Dist.Heartbeat.publish ~dir v;
      match Dist.Heartbeat.load (Dist.Heartbeat.path ~dir ~owner:"host:1:abc") with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok v' ->
          Alcotest.(check string) "owner" "host:1:abc" v'.Dist.Heartbeat.v_owner;
          Alcotest.(check int) "pairs" 1234 v'.Dist.Heartbeat.v_pairs;
          Alcotest.(check int) "completed" 3 v'.Dist.Heartbeat.v_completed;
          Alcotest.(check int) "seq" 5 v'.Dist.Heartbeat.v_seq;
          Alcotest.(check (option int))
            "current shard" (Some 7) v'.Dist.Heartbeat.v_current_shard;
          Alcotest.(check (float 1e-6))
            "hit rate" 0.25
            (Dist.Heartbeat.cache_hit_rate v');
          Alcotest.(check (option (float 1e-6)))
            "checkpoint age" (Some 1.)
            (Dist.Heartbeat.checkpoint_age v'))

let test_heartbeat_corrupt_skipped () =
  let dir = tmpdir "hb-corrupt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let good = Dist.Heartbeat.make_stats ~owner:"good" in
      Atomic.set good.Dist.Heartbeat.pairs 42;
      Dist.Heartbeat.publish ~dir
        (Dist.Heartbeat.view_of_stats ~now:1000. ~seq:1 good);
      let write name content =
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            Out_channel.output_string oc content)
      in
      (* a torn write (truncated mid-document), pure garbage, and a
         well-formed document of the wrong schema *)
      write "worker-torn-000001.hb" "{\"schema\":\"efgame-heartbeat/1\",\"ow";
      write "worker-garbage-000002.hb" "\x00\xff not json at all";
      write "worker-alien-000003.hb" "{\"schema\":\"something-else/9\"}";
      let observed, warnings = Dist.Heartbeat.list ~dir in
      Alcotest.(check int) "only the good snapshot loads" 1
        (List.length observed);
      Alcotest.(check string)
        "and it is the right one" "good"
        (List.hd observed).Dist.Heartbeat.ob_view.Dist.Heartbeat.v_owner;
      Alcotest.(check bool) "the store-observed mtime rides along" true
        ((List.hd observed).Dist.Heartbeat.ob_mtime <> None);
      Alcotest.(check int) "one warning per skipped file" 3
        (List.length warnings);
      (* the aggregate over the survivors still works *)
      let t = Dist.Top.aggregate ~now:1001. observed in
      Alcotest.(check int) "aggregate sees the good pairs" 42
        t.Dist.Top.fleet_pairs)

(* Workers that speculated wrote [speculated] and [spec_wins] counters
   into the same [efgame-heartbeat/1] schema. A directory holding such
   a snapshot must still aggregate: the reader ignores the counters it
   no longer knows. *)
let test_heartbeat_old_counters_load () =
  let dir = tmpdir "hb-old" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let doc =
        "{\"schema\":\"efgame-heartbeat/1\",\"owner\":\"old:1:abc\",\
         \"pid\":7,\"host\":\"h\",\"started_s\":990.0,\"now_s\":1000.0,\
         \"uptime_s\":10.0,\"seq\":4,\"pairs\":500,\"pairs_per_s\":50.0,\
         \"completed\":2,\"claimed\":3,\"reclaimed\":0,\"abandoned\":0,\
         \"requeued\":0,\"quarantined\":0,\"cache_hits\":1,\
         \"cache_misses\":3,\"cache_hit_rate\":0.25,\"faults\":0,\
         \"retries\":0,\"cost_done\":0,\"speculated\":3,\"spec_wins\":1,\
         \"current_shard\":null,\"last_checkpoint_s\":null}"
      in
      Out_channel.with_open_bin
        (Filename.concat dir "worker-old-000001.hb")
        (fun oc -> Out_channel.output_string oc doc);
      let observed, warnings = Dist.Heartbeat.list ~dir in
      Alcotest.(check int) "no warnings" 0 (List.length warnings);
      match observed with
      | [ o ] ->
          let v = o.Dist.Heartbeat.ob_view in
          Alcotest.(check string) "owner" "old:1:abc" v.Dist.Heartbeat.v_owner;
          Alcotest.(check int) "pairs" 500 v.Dist.Heartbeat.v_pairs;
          Alcotest.(check int) "completed" 2 v.Dist.Heartbeat.v_completed;
          let t = Dist.Top.aggregate ~now:1000. observed in
          Alcotest.(check int) "aggregates" 2 t.Dist.Top.fleet_completed
      | _ -> Alcotest.fail "expected exactly one snapshot")

(* Satellite of the chaos work: a heartbeat publisher on a failing
   store (ENOSPC, EIO, injected chaos) must keep ticking — no exception
   escapes, no file appears — and resume cleanly once the store heals.
   The regression this pins: an early version let a full disk kill the
   worker's telemetry thread. *)
let test_heartbeat_publish_degrades_gracefully () =
  let dir = tmpdir "hb-degrade" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let hostile =
        {
          Dist.Store.p_name = "enospc";
          p_mtime_granularity_s = 0.;
          p_clock_skew_s = 0.;
          p_visibility_s = 0.;
          p_fault_rate = 1.0;
          p_torn_rate = 0.;
        }
      in
      let stats = Dist.Heartbeat.make_stats ~owner:"degraded" in
      let v = Dist.Heartbeat.view_of_stats ~seq:1 stats in
      let path = Dist.Heartbeat.path ~dir ~owner:"degraded" in
      let prev = Dist.Store.active () in
      Dist.Store.use (Dist.Store.chaos ~seed:9 hostile Dist.Store.posix);
      Fun.protect
        ~finally:(fun () -> Dist.Store.use prev)
        (fun () ->
          (* every publish fails; none may raise or write *)
          for seq = 1 to 5 do
            Dist.Heartbeat.publish ~dir
              (Dist.Heartbeat.view_of_stats ~seq stats)
          done;
          Alcotest.(check bool)
            "no snapshot lands while the store is down" false
            (Sys.file_exists path));
      (* the store heals: publishing resumes with no restart *)
      Dist.Heartbeat.publish ~dir v;
      Alcotest.(check bool)
        "snapshot appears once the store recovers" true
        (Sys.file_exists path);
      match Dist.Heartbeat.load path with
      | Ok v' ->
          Alcotest.(check string)
            "and it is readable" "degraded" v'.Dist.Heartbeat.v_owner
      | Error e -> Alcotest.failf "post-recovery load: %s" e)

let test_heartbeat_missing_dir () =
  let views, warnings = Dist.Heartbeat.list ~dir:"/nonexistent-dir-efgame" in
  Alcotest.(check int) "no views" 0 (List.length views);
  Alcotest.(check bool) "warned" true (List.length warnings > 0)

(* ------------------------------------------------------------------ *)
(* Log timestamps *)

let test_log_iso8601 () =
  Alcotest.(check string)
    "epoch" "1970-01-01T00:00:00.000Z"
    (Obs.Log.iso8601 0.);
  Alcotest.(check string)
    "fractional seconds" "1970-01-01T00:00:00.500Z"
    (Obs.Log.iso8601 0.5);
  Alcotest.(check string)
    "ms clamp never rolls the second" "1970-01-01T00:00:01.999Z"
    (Obs.Log.iso8601 1.9999999);
  (* arbitrary timestamps parse back: the format is strict ISO-8601
     UTC with milliseconds *)
  List.iter
    (fun t ->
      let s = Obs.Log.iso8601 t in
      try
        Scanf.sscanf s "%4d-%2d-%2dT%2d:%2d:%2d.%3dZ%!"
          (fun y mo d h mi sec ms ->
            let tm =
              {
                Unix.tm_year = y - 1900;
                tm_mon = mo - 1;
                tm_mday = d;
                tm_hour = h;
                tm_min = mi;
                tm_sec = sec;
                tm_wday = 0;
                tm_yday = 0;
                tm_isdst = false;
              }
            in
            (* timegm via timelocal correction: compare field-wise
               against gmtime instead, which is timezone-independent *)
            let back = Unix.gmtime t in
            Alcotest.(check int) "year" (back.Unix.tm_year + 1900) y;
            Alcotest.(check int) "month" (back.Unix.tm_mon + 1) mo;
            Alcotest.(check int) "day" back.Unix.tm_mday tm.Unix.tm_mday;
            Alcotest.(check int) "hour" back.Unix.tm_hour h;
            Alcotest.(check int) "minute" back.Unix.tm_min mi;
            Alcotest.(check int) "second" back.Unix.tm_sec sec;
            Alcotest.(check bool) "ms in range" true (ms >= 0 && ms < 1000))
      with Scanf.Scan_failure msg | Failure msg ->
        Alcotest.failf "%S is not ISO-8601: %s" s msg)
    [ 1.; 86399.999; 1_754_600_000.123; 4_102_444_800.5 ];
  Alcotest.(check bool)
    "elapsed_ms is monotone from startup" true
    (Obs.Log.elapsed_ms () >= 0)

(* ------------------------------------------------------------------ *)
(* Timer percentiles *)

let test_timer_percentiles () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let t = Obs.Metrics.timer "test.timer_pcts" in
  (* 100 observations near 1 µs, 10 near 1 ms: p50 must land in the
     [512, 1024) ns bucket, p95 and p99 in [2^19, 2^20) ns *)
  for _ = 1 to 100 do
    Obs.Metrics.observe_ns t 1_000
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe_ns t 1_000_000
  done;
  let buckets =
    match List.assoc_opt "test.timer_pcts" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Timer b) -> b
    | _ -> Alcotest.fail "timer missing from snapshot"
  in
  Alcotest.(check int) "count" 110 (Array.fold_left ( + ) 0 buckets);
  let p50 = Obs.Metrics.percentile buckets 0.5 in
  let p95 = Obs.Metrics.percentile buckets 0.95 in
  let p99 = Obs.Metrics.percentile buckets 0.99 in
  Alcotest.(check bool)
    "p50 in the 1µs bucket" true
    (p50 >= 512. && p50 <= 1024.);
  Alcotest.(check bool)
    "p95 in the 1ms bucket" true
    (p95 >= 524_288. && p95 <= 1_048_576.);
  Alcotest.(check bool) "p99 >= p95" true (p99 >= p95);
  Alcotest.(check bool)
    "percentiles are monotone in q" true
    (p50 <= p95 && p95 <= p99);
  Alcotest.(check (float 1e-9))
    "empty histogram percentile is 0" 0.
    (Obs.Metrics.percentile [||] 0.99);
  (* the JSON snapshot carries the same numbers *)
  let w = Obs.Jsonw.create () in
  Obs.Metrics.write_json w;
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  match Obs.Jsonr.parse (Obs.Jsonw.contents w) with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok j -> (
      match
        Option.bind
          (Obs.Jsonr.member "timers" j)
          (Obs.Jsonr.member "test.timer_pcts")
      with
      | None -> Alcotest.fail "timer missing from JSON"
      | Some tj ->
          Alcotest.(check (option int)) "count" (Some 110)
            (Obs.Jsonr.mem_int "count" tj);
          Alcotest.(check (option (float 1.)))
            "p50_ns" (Some p50)
            (Obs.Jsonr.mem_float "p50_ns" tj))

(* ------------------------------------------------------------------ *)
(* Telemetry publisher *)

let test_telemetry_snapshot () =
  let dir = tmpdir "telemetry" in
  let path = Filename.concat dir "telemetry.json" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let pairs = ref 0 in
      let t =
        (* a long interval: the ticks we check are the immediate first
           one and the synchronous final one from stop *)
        Obs.Telemetry.start ~interval:600.
          ~progress:(fun () -> [ ("pairs", !pairs) ])
          ~path ()
      in
      pairs := 77;
      Obs.Telemetry.stop_publisher t;
      match Obs.Jsonr.of_file path with
      | Error e -> Alcotest.failf "snapshot does not parse: %s" e
      | Ok j ->
          Alcotest.(check (option string))
            "schema" (Some "efgame-telemetry/1")
            (Obs.Jsonr.mem_string "schema" j);
          Alcotest.(check (option int))
            "pid" (Some (Unix.getpid ()))
            (Obs.Jsonr.mem_int "pid" j);
          Alcotest.(check (option int))
            "final progress visible" (Some 77)
            (Option.bind
               (Obs.Jsonr.member "progress" j)
               (Obs.Jsonr.mem_int "pairs"));
          Alcotest.(check bool)
            "metrics embedded" true
            (Obs.Jsonr.member "metrics" j <> None);
          Alcotest.(check bool)
            "uptime non-negative" true
            (match Obs.Jsonr.mem_float "uptime_s" j with
            | Some u -> u >= 0.
            | None -> false))

let tests =
  ( "telemetry",
    [
      Alcotest.test_case "flight ring wraps at capacity" `Quick
        test_flight_ring_wraps;
      Alcotest.test_case "flight disabled is a no-op" `Quick
        test_flight_disabled_noop;
      QCheck_alcotest.to_alcotest prop_top_is_sum_of_workers;
      Alcotest.test_case "top shard states and eta" `Quick
        test_top_states_and_eta;
      Alcotest.test_case "heartbeat publish/load roundtrip" `Quick
        test_heartbeat_roundtrip;
      Alcotest.test_case "corrupt heartbeats skipped with warning" `Quick
        test_heartbeat_corrupt_skipped;
      Alcotest.test_case "heartbeat with old counters still loads" `Quick
        test_heartbeat_old_counters_load;
      Alcotest.test_case "heartbeat publish degrades and recovers" `Quick
        test_heartbeat_publish_degrades_gracefully;
      Alcotest.test_case "heartbeat list on missing dir" `Quick
        test_heartbeat_missing_dir;
      Alcotest.test_case "log timestamps are ISO-8601" `Quick test_log_iso8601;
      Alcotest.test_case "timer percentiles" `Quick test_timer_percentiles;
      Alcotest.test_case "telemetry snapshot publisher" `Quick
        test_telemetry_snapshot;
    ] )
