(* The self-healing layer: cost-model tiling and calibration (windows
   tile the triangle under any exponent, window costs are additive,
   calibration recovers the exponent that generated the walls),
   manifest v2 model round-trip plus v1 compatibility, completion-
   record speculation fields and the first-record-wins race, the heal
   split-and-retry re-tiling invariant, heal end-to-end (quarantine →
   heal → stamped bound) and irreducible-poison narrowing, speculative
   rescue of a straggler-held shard, and the Top straggler cut and
   cost-basis ETA. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "efgame_heal_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let setup_scan ?model ~k ~max_n ~shards dir =
  let m = Dist.Manifest.create ?model ~k ~max_n ~shards () in
  match Dist.Manifest.save m ~dir with
  | Ok () -> m
  | Error msg -> Alcotest.failf "manifest save: %s" msg

(* ---------------------------------------------------------- cost model *)

let test_cost_tile_covers () =
  List.iter
    (fun model ->
      List.iter
        (fun (max_n, shards) ->
          let total = max_n * (max_n + 1) / 2 in
          let windows = Dist.Cost.tile ~model ~max_n ~shards in
          let covered = ref 0 in
          Array.iteri
            (fun i (lo, hi) ->
              check_int
                (Printf.sprintf "%s lo of window %d (max_n=%d)"
                   (Dist.Cost.to_string model) i max_n)
                !covered lo;
              check_bool "window nonempty" true (hi > lo);
              covered := hi)
            windows;
          check_int
            (Printf.sprintf "%s full cover (max_n=%d, shards=%d)"
               (Dist.Cost.to_string model) max_n shards)
            total !covered)
        [ (1, 1); (5, 3); (16, 4); (16, 1000); (96, 7); (96, 12) ])
    [
      Dist.Cost.Uniform;
      Dist.Cost.Power 0.;
      Dist.Cost.Power 1.;
      Dist.Cost.Power 2.;
      Dist.Cost.Power 3.3;
    ]

let test_cost_window_additive () =
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b) in
  List.iter
    (fun model ->
      let total = 96 * 97 / 2 in
      List.iter
        (fun (lo, mid, hi) ->
          let whole = Dist.Cost.window_cost model lo hi in
          let halves =
            Dist.Cost.window_cost model lo mid
            +. Dist.Cost.window_cost model mid hi
          in
          check_bool
            (Printf.sprintf "%s additive [%d,%d,%d)"
               (Dist.Cost.to_string model) lo mid hi)
            true (close whole halves))
        [ (0, 1, 2); (0, 100, total); (7, 1000, 2000); (0, total / 2, total) ];
      (* and under Uniform the cost is literally the pair count *)
      check_bool "uniform = pair count" true
        (close (Dist.Cost.window_cost Dist.Cost.Uniform 7 919) (float_of_int (919 - 7))))
    [ Dist.Cost.Uniform; Dist.Cost.Power 1.; Dist.Cost.Power 2. ]

let test_cost_tile_shrinks_deep_windows () =
  (* the whole point of a Power cut: the deep-q (last) window holds
     far fewer pairs than the shallow (first) one *)
  let windows = Dist.Cost.tile ~model:(Dist.Cost.Power 2.) ~max_n:96 ~shards:8 in
  let pairs (lo, hi) = hi - lo in
  let first = pairs windows.(0) in
  let last = pairs windows.(Array.length windows - 1) in
  check_bool
    (Printf.sprintf "deep window smaller (first %d, last %d)" first last)
    true
    (last * 2 < first)

let test_calibrate_recovers_alpha () =
  (* synthesize walls from a known exponent (constant time-per-cost
     factor): the fit must recover it *)
  let truth = Dist.Cost.Power 2. in
  let windows = Dist.Cost.tile ~model:Dist.Cost.Uniform ~max_n:96 ~shards:8 in
  let samples =
    Array.to_list windows
    |> List.map (fun (lo, hi) ->
           {
             Dist.Cost.s_lo = lo;
             s_hi = hi;
             s_wall = 3.7e-6 *. Dist.Cost.window_cost truth lo hi;
           })
  in
  (match Dist.Cost.calibrate samples with
  | Dist.Cost.Power a ->
      check_bool (Printf.sprintf "recovered alpha %.2f" a) true
        (Float.abs (a -. 2.) <= 0.1)
  | Dist.Cost.Uniform -> Alcotest.fail "calibrated to Uniform");
  (* fewer than two usable samples: the fallback, verbatim *)
  match Dist.Cost.calibrate ~fallback:(Dist.Cost.Power 1.5) [ List.hd samples ] with
  | Dist.Cost.Power a ->
      check_bool "fallback exponent" true (Float.abs (a -. 1.5) <= 1e-9)
  | Dist.Cost.Uniform -> Alcotest.fail "fallback ignored"

(* ------------------------------------------------------- manifest v1/v2 *)

let test_manifest_model_round_trip () =
  with_dir (fun dir ->
      let m =
        setup_scan ~model:(Dist.Cost.Power 2.5) ~k:3 ~max_n:48 ~shards:5 dir
      in
      match Dist.Manifest.load ~dir with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok m' ->
          check_bool "model survives" true
            (m'.Dist.Manifest.model = Dist.Cost.Power 2.5);
          check_bool "windows survive" true
            (m.Dist.Manifest.shards = m'.Dist.Manifest.shards))

let test_manifest_bad_int_rejected () =
  (* a correct checksum over a non-integer field: an [Error], never an
     int_of_string exception *)
  with_dir (fun dir ->
      List.iter
        (fun body ->
          let data =
            Printf.sprintf "%schecksum %Lx\n" body (Dist.Manifest.fnv1a64 body)
          in
          write_file (Dist.Manifest.path dir) data;
          match Dist.Manifest.load ~dir with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "loaded a malformed manifest: %S" body
          | exception e ->
              Alcotest.failf "load raised %s on %S" (Printexc.to_string e) body)
        [
          "efgame-shard-manifest 2\nk three\nmax_n 4\ntotal 10\nshard 0 0 10\n";
          "efgame-shard-manifest 2\nk 2\nmax_n 4x\ntotal 10\nshard 0 0 10\n";
          "efgame-shard-manifest 2\nk 2\nmax_n 4\ntotal ten\nshard 0 0 10\n";
          "efgame-shard-manifest 2\nk 2\nmax_n 4\ntotal 10\nshard 0 0 1e1\n";
        ])

let test_manifest_v1_loads_uniform () =
  (* a version 1 manifest (no model line), hand-written byte for byte:
     still loads, as a Uniform cut *)
  with_dir (fun dir ->
      let body =
        "efgame-shard-manifest 1\nk 2\nmax_n 4\ntotal 10\n\
         shard 0 0 5\nshard 1 5 10\n"
      in
      let data =
        Printf.sprintf "%schecksum %Lx\n" body (Dist.Manifest.fnv1a64 body)
      in
      write_file (Dist.Manifest.path dir) data;
      match Dist.Manifest.load ~dir with
      | Error msg -> Alcotest.failf "v1 load: %s" msg
      | Ok m ->
          check_int "k" 2 m.Dist.Manifest.k;
          check_int "total" 10 m.Dist.Manifest.total;
          check_bool "model defaults to Uniform" true
            (m.Dist.Manifest.model = Dist.Cost.Uniform);
          check_int "shards" 2 (Array.length m.Dist.Manifest.shards))

(* ---------------------------------------------------------- records *)

let mk_record ?(owner = "tester") ?(entries = 7) ?(fnv = 0xfeedL) ?table
    ?wall_ns shard =
  {
    Dist.Record.shard;
    owner;
    outcome = Dist.Record.Exhausted;
    entries;
    table_fnv = fnv;
    table;
    wall_ns;
  }

let test_record_speculation_fields () =
  with_dir (fun dir ->
      let r =
        mk_record ~table:(Dist.Manifest.spec_table_name 3)
          ~wall_ns:1_234_567_890L 3
      in
      (match Dist.Record.write ~dir r with
      | `Written -> ()
      | `Lost _ | `Error _ -> Alcotest.fail "first write must land");
      (match Dist.Record.read ~dir 3 with
      | Error msg -> Alcotest.failf "read: %s" msg
      | Ok r' ->
          check_bool "round-trips" true (r' = r);
          check_bool "table file resolves under dir" true
            (Dist.Record.table_file ~dir r'
            = Dist.Manifest.spec_table_path dir 3));
      (* second writer loses, and is handed the winner *)
      (match Dist.Record.write ~dir (mk_record ~owner:"late" 3) with
      | `Lost (Some w) -> check_bool "winner read back" true (w = r)
      | `Lost None -> Alcotest.fail "winner unreadable"
      | `Written -> Alcotest.fail "second write must lose"
      | `Error msg -> Alcotest.failf "second write: %s" msg);
      (* replace — heal's sanctioned overwrite — does land *)
      let healed = mk_record ~owner:"healer" ~entries:9 3 in
      (match Dist.Record.write ~replace:true ~dir healed with
      | `Written -> ()
      | `Lost _ | `Error _ -> Alcotest.fail "replace must land");
      match Dist.Record.read ~dir 3 with
      | Ok r' -> check_bool "replaced" true (r'.Dist.Record.owner = "healer")
      | Error msg -> Alcotest.failf "read after replace: %s" msg)

(* N certifiers race one shard's record: the O_EXCL create lets exactly
   one `Written through, and the record on disk names that winner —
   the single winner point speculation leans on. *)
let prop_first_record_wins =
  QCheck.Test.make ~name:"racing certifiers: exactly one record lands"
    ~count:25
    QCheck.(int_range 2 8)
    (fun n ->
      let dir = fresh_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
          let start = Atomic.make false in
          let domains =
            List.init n (fun i ->
                Domain.spawn (fun () ->
                    while not (Atomic.get start) do
                      Domain.cpu_relax ()
                    done;
                    let owner = Printf.sprintf "racer-%d" i in
                    match
                      Dist.Record.write ~dir
                        (mk_record ~owner ~fnv:(Int64.of_int i) 0)
                    with
                    | `Written -> Some owner
                    | `Lost _ -> None
                    | `Error _ -> None))
          in
          Atomic.set start true;
          let winners = List.filter_map Domain.join domains in
          match (winners, Dist.Record.read ~dir 0) with
          | [ w ], Ok r -> r.Dist.Record.owner = w
          | _ -> false))

(* ------------------------------------------------------------- heal *)

(* The split-and-retry skeleton re-tiles the original window exactly —
   leaves in order, no gap, no overlap — whatever subset of windows a
   (deterministic) solve refuses, and only single-pair windows may
   stay failed. *)
let prop_heal_retiling =
  QCheck.Test.make ~name:"heal split-and-retry re-tiles the window exactly"
    ~count:200
    QCheck.(triple (int_range 0 50) (int_range 0 60) (int_range 0 10_000))
    (fun (lo, len, seed) ->
      let hi = lo + len in
      let solve ~depth:_ l h =
        (* a deterministic pseudo-random verdict per (l, h) window *)
        if (Hashtbl.hash (l, h, seed) land 7) < 3 then Error "refused"
        else Ok ()
      in
      let leaves = Dist.Heal.split_tiles ~solve lo hi in
      let tiles_ok =
        let covered = ref lo in
        List.for_all
          (fun l ->
            let ok = l.Dist.Heal.l_lo = !covered && l.Dist.Heal.l_hi > l.Dist.Heal.l_lo in
            covered := l.Dist.Heal.l_hi;
            ok)
          leaves
        && !covered = hi
      in
      let failures_are_singletons =
        List.for_all
          (fun l ->
            match l.Dist.Heal.l_result with
            | Ok () -> true
            | Error _ -> l.Dist.Heal.l_hi - l.Dist.Heal.l_lo <= 1)
          leaves
      in
      (if len = 0 then leaves = [] else tiles_ok) && failures_are_singletons)

let test_heal_end_to_end () =
  (* quarantine a shard with nothing behind it (the healable shape a
     crashed-then-requeued-out shard leaves), scan the rest, heal —
     the directory must converge to a complete merge with the bound *)
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:10 ~shards:2 dir);
      (match Dist.Manifest.quarantine ~dir ~owner:"test" 1 "injected damage" with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "quarantine: %s" msg);
      let cfg =
        { (Dist.Worker.default_config ~dir) with Dist.Worker.fsync = false }
      in
      (match Dist.Worker.run cfg with
      | Ok s ->
          check_int "worker skips the quarantined shard" 1
            s.Dist.Worker.completed
      | Error msg -> Alcotest.failf "worker: %s" msg);
      let hcfg =
        { (Dist.Heal.default_config ~dir) with Dist.Heal.fsync = false }
      in
      (match Dist.Heal.heal_all ~cfg:hcfg with
      | Error msg -> Alcotest.failf "heal: %s" msg
      | Ok f ->
          check_int "healed" 1 f.Dist.Heal.healed;
          check_int "still poisoned" 0 f.Dist.Heal.still_poisoned;
          check_int "failed" 0 f.Dist.Heal.failed);
      check_bool "quarantine lifted" true
        (Dist.Manifest.state ~dir ~ttl:30.
           { Dist.Manifest.id = 1; lo = 0; hi = 1 }
        = Dist.Manifest.Done);
      (* healing is idempotent in effect: a second sweep finds nothing *)
      (match Dist.Heal.heal_all ~cfg:hcfg with
      | Ok f -> check_int "nothing left to heal" 0 (List.length f.Dist.Heal.per_shard)
      | Error msg -> Alcotest.failf "second heal: %s" msg);
      let out = Filename.concat dir "merged.tbl" in
      match Dist.Merge.merge ~fsync:false ~dir ~out () with
      | Error msg -> Alcotest.failf "merge: %s" msg
      | Ok t ->
          check_bool "complete" true (Dist.Merge.complete t);
          Alcotest.(check (option (pair int int)))
            "bound stamped" (Some (2, 10)) t.Dist.Merge.bound)

let test_run_heals_merge_quarantine () =
  (* a table damaged after certification is caught only by the merge;
     the controller's next round must heal it and merge clean — all in
     process, with no worker ever spawned *)
  with_dir (fun dir ->
      let m = setup_scan ~k:2 ~max_n:10 ~shards:3 dir in
      (match
         Dist.Worker.run
           { (Dist.Worker.default_config ~dir) with Dist.Worker.fsync = false }
       with
      | Ok s -> check_int "drained" 3 s.Dist.Worker.completed
      | Error msg -> Alcotest.failf "worker: %s" msg);
      let table = Dist.Manifest.table_path dir 1 in
      write_file table (In_channel.with_open_bin table In_channel.input_all ^ "x");
      let out = Filename.concat dir "merged.tbl" in
      let r =
        Dist.Run.converge ~dir ~ttl:30. ~workers:2 ~rounds:3 ~out
          ~spawn:(fun () -> Alcotest.fail "spawned a worker with no work left")
          m
      in
      check_int "merge quarantine healed next round" 2 r.Dist.Run.rounds;
      check_int "healed" 1 r.Dist.Run.healed;
      check_int "spawned" 0 r.Dist.Run.spawned;
      check_bool "converged" true r.Dist.Run.converged;
      check_bool "one heal phase" true
        (List.map (fun (p, round, _) -> (p, round)) r.Dist.Run.phases
        = [ ("heal", 2) ]);
      match r.Dist.Run.merge with
      | Error msg -> Alcotest.failf "merge: %s" msg
      | Ok t ->
          check_bool "complete" true (Dist.Merge.complete t);
          Alcotest.(check (option (pair int int)))
            "bound stamped" (Some (2, 10)) t.Dist.Merge.bound)

let test_heal_irreducible_narrows () =
  (* a budget that can never solve anything: the heal must split all
     the way down, leave only single-pair leaves poisoned, and narrow
     the quarantine reason to exactly them *)
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:6 ~shards:1 dir);
      (match Dist.Manifest.quarantine ~dir ~owner:"test" 0 "injected" with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "quarantine: %s" msg);
      let hcfg =
        {
          (Dist.Heal.default_config ~dir) with
          Dist.Heal.budget = Some 0;
          fsync = false;
        }
      in
      match Dist.Heal.heal_all ~cfg:hcfg with
      | Error msg -> Alcotest.failf "heal: %s" msg
      | Ok f ->
          check_int "still poisoned" 1 f.Dist.Heal.still_poisoned;
          check_int "healed" 0 f.Dist.Heal.healed;
          (match f.Dist.Heal.per_shard with
          | [ (0, `Poisoned leaves) ] ->
              check_bool "some irreducible windows" true (leaves <> []);
              List.iter
                (fun (lo, hi, _) ->
                  check_int "irreducible leaves are single pairs" 1 (hi - lo))
                leaves
          | _ -> Alcotest.fail "expected shard 0 poisoned");
          (* still Quarantined, with the narrowed reason *)
          check_bool "still quarantined" true
            (Dist.Manifest.state ~dir ~ttl:30.
               { Dist.Manifest.id = 0; lo = 0; hi = 1 }
            = Dist.Manifest.Quarantined);
          match Dist.Manifest.quarantine_reason dir 0 with
          | Some reason ->
              check_bool "reason names the heal" true
                (String.length reason >= 11
                && String.sub reason 0 11 = "irreducible")
          | None -> Alcotest.fail "no quarantine reason")

(* -------------------------------------------------------- speculation *)

let mk_view ~owner ~now ?(uptime = 100.) ?(pairs = 0) ?(cost_done = 0)
    ?current_shard () =
  {
    Dist.Heartbeat.v_owner = owner;
    v_pid = 4242;
    v_host = "testhost";
    v_started = now -. uptime;
    v_now = now;
    v_seq = 1;
    v_pairs = pairs;
    v_completed = 0;
    v_claimed = 1;
    v_reclaimed = 0;
    v_abandoned = 0;
    v_requeued = 0;
    v_quarantined = 0;
    v_cache_hits = 0;
    v_cache_misses = 0;
    v_faults = 0;
    v_retries = 0;
    v_current_shard = current_shard;
    v_last_checkpoint = None;
    v_cost_done = cost_done;
    v_speculated = 0;
    v_spec_wins = 0;
  }

let test_speculation_rescues_straggler () =
  (* a foreign "slowpoke" holds shard 0's lease (fresh — it renews by
     mtime, and the file is brand new) and advertises itself crawling;
     a speculating worker must finish shard 1 normally, then rescue
     shard 0 under the secondary lease and certify its .spec.tbl *)
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:10 ~shards:2 dir);
      (match
         Dist.Lease.try_claim ~ttl:30. ~owner:"slowpoke"
           (Dist.Manifest.lease_path dir 0)
       with
      | `Claimed _ -> ()
      | `Reclaimed _ | `Held -> Alcotest.fail "slowpoke claim failed");
      let now = Unix.gettimeofday () in
      Dist.Heartbeat.publish ~dir
        (mk_view ~owner:"slowpoke" ~now ~pairs:5 ~current_shard:0 ());
      let cfg =
        {
          (Dist.Worker.default_config ~dir) with
          Dist.Worker.fsync = false;
          speculate = true;
          heartbeat = 0.;
        }
      in
      match Dist.Worker.run cfg with
      | Error msg -> Alcotest.failf "worker: %s" msg
      | Ok s ->
          check_int "both shards completed" 2 s.Dist.Worker.completed;
          check_bool "speculated" true (s.Dist.Worker.speculated >= 1);
          check_bool "speculation won" true (s.Dist.Worker.spec_wins >= 1);
          check_int "nothing quarantined" 0 s.Dist.Worker.quarantined;
          (match Dist.Record.read ~dir 0 with
          | Error msg -> Alcotest.failf "record: %s" msg
          | Ok r ->
              Alcotest.(check (option string))
                "record certifies the speculator's table"
                (Some (Dist.Manifest.spec_table_name 0))
                r.Dist.Record.table);
          let out = Filename.concat dir "merged.tbl" in
          (match Dist.Merge.merge ~fsync:false ~dir ~out () with
          | Error msg -> Alcotest.failf "merge: %s" msg
          | Ok t ->
              check_bool "complete" true (Dist.Merge.complete t);
              Alcotest.(check (option (pair int int)))
                "bound stamped" (Some (2, 10)) t.Dist.Merge.bound))

(* a speculative duplicate that loses the record race is discarded by
   content hash, never double-counted: drive certify's loser path
   directly by pre-writing the winner *)
let test_speculation_duplicate_discarded () =
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:6 ~shards:1 dir);
      (* the primary already certified: any later certifier must lose *)
      let winner = mk_record ~owner:"primary" ~fnv:0x1234L 0 in
      (match Dist.Record.write ~dir winner with
      | `Written -> ()
      | _ -> Alcotest.fail "pre-write failed");
      match Dist.Record.write ~dir (mk_record ~owner:"spec" ~fnv:0x1234L 0) with
      | `Lost (Some w) ->
          check_bool "same content hash: harmless duplicate" true
            (w.Dist.Record.table_fnv = 0x1234L)
      | `Lost None | `Written -> Alcotest.fail "duplicate must lose readably"
      | `Error msg -> Alcotest.failf "duplicate write: %s" msg)

(* ------------------------------------------------- top: stragglers, ETA *)

let observe ~now views =
  List.map (fun v -> { Dist.Heartbeat.ob_view = v; ob_mtime = Some now }) views

let test_top_straggler_cut () =
  let now = 1000. in
  let shard i lo hi = { Dist.Manifest.id = i; lo; hi } in
  let states =
    [
      (shard 0 0 100, Dist.Manifest.Leased);
      (shard 1 100 200, Dist.Manifest.Leased);
      (shard 2 200 300, Dist.Manifest.Leased);
      (shard 3 300 400, Dist.Manifest.Leased);
    ]
  in
  let fleet =
    [
      mk_view ~owner:"fast-1" ~now ~pairs:10_000 ~current_shard:1 ();
      mk_view ~owner:"fast-2" ~now ~pairs:11_000 ~current_shard:2 ();
      mk_view ~owner:"fast-3" ~now ~pairs:9_500 ~current_shard:3 ();
      mk_view ~owner:"slow" ~now ~pairs:100 ~current_shard:0 ();
    ]
  in
  let t = Dist.Top.aggregate ~now ~states (observe ~now fleet) in
  Alcotest.(check (list int)) "slow holder's shard flagged" [ 0 ]
    t.Dist.Top.stragglers;
  List.iter
    (fun (r : Dist.Top.worker_row) ->
      check_bool
        (Printf.sprintf "straggler flag for %s" r.Dist.Top.hb.Dist.Heartbeat.v_owner)
        (r.Dist.Top.hb.Dist.Heartbeat.v_owner = "slow")
        r.Dist.Top.straggler)
    t.Dist.Top.workers;
  (* under three progressing holders the cut refuses to name anyone:
     a two-worker fleet where one is simply slower is never flagged *)
  let two =
    [
      mk_view ~owner:"fast-1" ~now ~pairs:10_000 ~current_shard:1 ();
      mk_view ~owner:"slow" ~now ~pairs:100 ~current_shard:0 ();
    ]
  in
  let t2 = Dist.Top.aggregate ~now ~states (observe ~now two) in
  Alcotest.(check (list int)) "no cut below three holders" []
    t2.Dist.Top.stragglers

let test_top_cost_eta () =
  let now = 1000. in
  let model = Dist.Cost.Power 2. in
  let shard i lo hi = { Dist.Manifest.id = i; lo; hi } in
  let states =
    [
      (shard 0 0 100, Dist.Manifest.Done);
      (shard 1 100 200, Dist.Manifest.Leased);
    ]
  in
  let fleet =
    [ mk_view ~owner:"w" ~now ~uptime:10. ~pairs:100 ~cost_done:500
        ~current_shard:1 () ]
  in
  let t = Dist.Top.aggregate ~now ~model ~states (observe ~now fleet) in
  Alcotest.(check string) "cost basis" "cost" t.Dist.Top.eta_basis;
  let remaining = Dist.Cost.window_cost model 100 200 in
  check_bool "remaining cost priced by the model" true
    (Float.abs (t.Dist.Top.remaining_cost -. remaining) < 1e-6);
  (match t.Dist.Top.eta_s with
  | Some eta ->
      (* cost rate is 500 / 10 = 50 units/s *)
      check_bool "eta = remaining / cost rate" true
        (Float.abs (eta -. (remaining /. 50.)) < 1e-3)
  | None -> Alcotest.fail "no ETA");
  (* the same fleet under Uniform prices by pairs *)
  let t' = Dist.Top.aggregate ~now ~states (observe ~now fleet) in
  Alcotest.(check string) "pairs basis under Uniform" "pairs"
    t'.Dist.Top.eta_basis

let tests =
  ( "heal",
    [
      Alcotest.test_case "cost windows tile the triangle (any exponent)"
        `Quick test_cost_tile_covers;
      Alcotest.test_case "window costs are additive" `Quick
        test_cost_window_additive;
      Alcotest.test_case "power cut shrinks deep-q windows" `Quick
        test_cost_tile_shrinks_deep_windows;
      Alcotest.test_case "calibration recovers the exponent" `Quick
        test_calibrate_recovers_alpha;
      Alcotest.test_case "manifest v2 model round-trips" `Quick
        test_manifest_model_round_trip;
      Alcotest.test_case "manifest v1 still loads (Uniform)" `Quick
        test_manifest_v1_loads_uniform;
      Alcotest.test_case "manifest with a non-integer field rejected" `Quick
        test_manifest_bad_int_rejected;
      Alcotest.test_case "record speculation fields; replace discipline"
        `Quick test_record_speculation_fields;
      QCheck_alcotest.to_alcotest prop_first_record_wins;
      QCheck_alcotest.to_alcotest prop_heal_retiling;
      Alcotest.test_case "heal: quarantine -> re-certified bound" `Quick
        test_heal_end_to_end;
      Alcotest.test_case "run: merge quarantine healed by the next round"
        `Quick test_run_heals_merge_quarantine;
      Alcotest.test_case "heal: irreducible windows narrow the quarantine"
        `Quick test_heal_irreducible_narrows;
      Alcotest.test_case "speculation rescues a straggler-held shard"
        `Quick test_speculation_rescues_straggler;
      Alcotest.test_case "losing speculative duplicate is discarded" `Quick
        test_speculation_duplicate_discarded;
      Alcotest.test_case "top: robust straggler cut" `Quick
        test_top_straggler_cut;
      Alcotest.test_case "top: cost-model ETA basis" `Quick
        test_top_cost_eta;
    ] )
