(* The self-healing layer: the (q+1)^2 cost tiling (windows tile the
   triangle, window costs are additive, deep-q windows shrink),
   manifest round-trip plus loading of older v2 model lines and v1
   files, completion records naming a non-default table and the
   first-record-wins race, the losing certifier's discard, the heal
   split-and-retry re-tiling invariant, heal end-to-end (quarantine →
   heal → stamped bound) and irreducible-poison narrowing, merging a
   record an older speculating worker left, and the Top cost ETA. *)

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

let setup_scan ~k ~max_n ~shards dir =
  let m = Dist.Manifest.create ~k ~max_n ~shards () in
  match Dist.Manifest.save m ~dir with
  | Ok () -> m
  | Error msg -> Alcotest.failf "manifest save: %s" msg

let write_manifest dir body =
  write_file (Dist.Manifest.path dir)
    (Printf.sprintf "%schecksum %Lx\n" body (Dist.Manifest.fnv1a64 body))

(* ---------------------------------------------------------- cost tiling *)

let test_cost_tile_covers () =
  List.iter
    (fun (max_n, shards) ->
      let total = max_n * (max_n + 1) / 2 in
      let windows = Dist.Cost.tile ~max_n ~shards in
      let covered = ref 0 in
      Array.iteri
        (fun i (lo, hi) ->
          check_int
            (Printf.sprintf "lo of window %d (max_n=%d)" i max_n)
            !covered lo;
          check_bool "window nonempty" true (hi > lo);
          covered := hi)
        windows;
      check_int
        (Printf.sprintf "full cover (max_n=%d, shards=%d)" max_n shards)
        total !covered)
    [ (1, 1); (5, 3); (16, 4); (16, 1000); (96, 7); (96, 12) ]

let test_cost_window_additive () =
  let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs b) in
  let total = 96 * 97 / 2 in
  List.iter
    (fun (lo, mid, hi) ->
      let whole = Dist.Cost.window_cost lo hi in
      let halves = Dist.Cost.window_cost lo mid +. Dist.Cost.window_cost mid hi in
      check_bool
        (Printf.sprintf "additive [%d,%d,%d)" lo mid hi)
        true (close whole halves))
    [ (0, 1, 2); (0, 100, total); (7, 1000, 2000); (0, total / 2, total) ];
  (* the price itself: row q holds q pairs at (q+1)^2 each *)
  check_bool "Σ_{q=1}^{64} q·(q+1)² = 4,507,360" true
    (Dist.Cost.window_cost 0 (64 * 65 / 2) = 4_507_360.)

let test_cost_tile_shrinks_deep_windows () =
  (* the whole point of the cost cut: the deep-q (last) window holds
     far fewer pairs than the shallow (first) one *)
  let windows = Dist.Cost.tile ~max_n:96 ~shards:8 in
  let pairs (lo, hi) = hi - lo in
  let first = pairs windows.(0) in
  let last = pairs windows.(Array.length windows - 1) in
  check_bool
    (Printf.sprintf "deep window smaller (first %d, last %d)" first last)
    true
    (last * 2 < first)

(* ------------------------------------------------------- manifest v1/v2 *)

let test_manifest_round_trip () =
  with_dir (fun dir ->
      let m = setup_scan ~k:3 ~max_n:48 ~shards:5 dir in
      let data =
        In_channel.with_open_bin (Dist.Manifest.path dir) In_channel.input_all
      in
      check_bool "no model line" false
        (List.exists
           (String.starts_with ~prefix:"model ")
           (String.split_on_char '\n' data));
      match Dist.Manifest.load ~dir with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok m' ->
          check_bool "windows survive" true
            (m.Dist.Manifest.shards = m'.Dist.Manifest.shards));
  (* older v2 manifests name the cut their windows came from: the
     windows load as written, whatever the model says *)
  List.iter
    (fun model ->
      with_dir (fun dir ->
          write_manifest dir
            (Printf.sprintf
               "efgame-shard-manifest 2\nk 2\nmax_n 4\ntotal 10\nmodel %s\n\
                shard 0 0 3\nshard 1 3 10\n"
               model);
          match Dist.Manifest.load ~dir with
          | Error msg -> Alcotest.failf "model %s: %s" model msg
          | Ok m ->
              check_bool
                (Printf.sprintf "model %s: windows as written" model)
                true
                (m.Dist.Manifest.shards
                = [|
                    { Dist.Manifest.id = 0; lo = 0; hi = 3 };
                    { Dist.Manifest.id = 1; lo = 3; hi = 10 };
                  |])))
    [ "uniform"; "power:2.5" ];
  with_dir (fun dir ->
      write_manifest dir
        "efgame-shard-manifest 2\nk 2\nmax_n 4\ntotal 10\nmodel power:nan\n\
         shard 0 0 10\n";
      match Dist.Manifest.load ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded model power:nan")

let test_manifest_bad_int_rejected () =
  (* a correct checksum over a non-integer field: an [Error], never an
     int_of_string exception *)
  with_dir (fun dir ->
      List.iter
        (fun body ->
          write_manifest dir body;
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

let test_manifest_v1_loads () =
  (* a version 1 manifest (no model line), hand-written byte for byte *)
  with_dir (fun dir ->
      write_manifest dir
        "efgame-shard-manifest 1\nk 2\nmax_n 4\ntotal 10\n\
         shard 0 0 5\nshard 1 5 10\n";
      match Dist.Manifest.load ~dir with
      | Error msg -> Alcotest.failf "v1 load: %s" msg
      | Ok m ->
          check_int "k" 2 m.Dist.Manifest.k;
          check_int "total" 10 m.Dist.Manifest.total;
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

let test_record_non_default_table () =
  with_dir (fun dir ->
      let r = mk_record ~table:"shard-0003.spec.tbl" ~wall_ns:1_234_567_890L 3 in
      (match Dist.Record.write ~dir r with
      | `Written -> ()
      | `Lost _ | `Error _ -> Alcotest.fail "first write must land");
      (match Dist.Record.read ~dir 3 with
      | Error msg -> Alcotest.failf "read: %s" msg
      | Ok r' ->
          check_bool "round-trips" true (r' = r);
          check_bool "table file resolves under dir" true
            (Dist.Record.table_file ~dir r'
            = Filename.concat dir "shard-0003.spec.tbl"));
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
   the single winner point a reclaim race leans on. *)
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

(* Workers that speculated certified a backup scan's [.spec.tbl] and
   named it in the record. Such a directory must still merge: move a
   drained shard's table to that name and rewrite its record the way
   the speculator left it. *)
let test_merge_old_spec_record () =
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:10 ~shards:2 dir);
      (match
         Dist.Worker.run
           { (Dist.Worker.default_config ~dir) with Dist.Worker.fsync = false }
       with
      | Ok s -> check_int "drained" 2 s.Dist.Worker.completed
      | Error msg -> Alcotest.failf "worker: %s" msg);
      let spec = Filename.concat dir "shard-0000.spec.tbl" in
      Sys.rename (Dist.Manifest.table_path dir 0) spec;
      (match Dist.Record.read ~dir 0 with
      | Error msg -> Alcotest.failf "record: %s" msg
      | Ok r -> (
          check_bool "current workers name no table" true
            (r.Dist.Record.table = None);
          let old =
            {
              r with
              Dist.Record.owner = "speculator";
              table = Some "shard-0000.spec.tbl";
            }
          in
          match Dist.Record.write ~replace:true ~dir old with
          | `Written -> ()
          | `Lost _ | `Error _ -> Alcotest.fail "record rewrite"));
      let out = Filename.concat dir "merged.tbl" in
      match Dist.Merge.merge ~fsync:false ~dir ~out () with
      | Error msg -> Alcotest.failf "merge: %s" msg
      | Ok t ->
          check_bool "complete" true (Dist.Merge.complete t);
          Alcotest.(check (option (pair int int)))
            "bound stamped" (Some (2, 10)) t.Dist.Merge.bound)

(* A slow original holder that finishes after its reclaimer certified
   the shard loses the record race: certify reports the winner and the
   loser's hash instead of overwriting. Drive certify's loser path
   directly by pre-writing the reclaimer's record. *)
let test_duplicate_certifier_discarded () =
  with_dir (fun dir ->
      ignore (setup_scan ~k:2 ~max_n:6 ~shards:1 dir);
      let winner = mk_record ~owner:"reclaimer" ~fnv:0x1234L 0 in
      (match Dist.Record.write ~dir winner with
      | `Written -> ()
      | _ -> Alcotest.fail "pre-write failed");
      match
        Dist.Worker.certify ~dir ~fsync:false ~owner:"original" ~id:0
          ~cache:(Efgame.Cache.create ()) ~outcome:Dist.Record.Exhausted
          ~table:(Dist.Manifest.table_path dir 0) ~wall_ns:0L ()
      with
      | Ok (`Superseded (Some w, _)) ->
          check_bool "the reclaimer's record stands" true (w = winner);
          (match Dist.Record.read ~dir 0 with
          | Ok r -> check_bool "record unchanged" true (r = winner)
          | Error msg -> Alcotest.failf "read: %s" msg)
      | Ok (`Superseded (None, _)) -> Alcotest.fail "winner unreadable"
      | Ok (`Certified _) -> Alcotest.fail "duplicate must lose"
      | Error msg -> Alcotest.failf "certify: %s" msg)

(* -------------------------------------------------------- top: ETA *)

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
  }

let observe ~now views =
  List.map (fun v -> { Dist.Heartbeat.ob_view = v; ob_mtime = Some now }) views

let test_top_cost_eta () =
  let now = 1000. in
  let shard i lo hi = { Dist.Manifest.id = i; lo; hi } in
  let states =
    [
      (shard 0 0 100, Dist.Manifest.Done);
      (shard 1 100 200, Dist.Manifest.Leased);
    ]
  in
  let fleet ~cost_done =
    [ mk_view ~owner:"w" ~now ~uptime:10. ~pairs:100 ~cost_done
        ~current_shard:1 () ]
  in
  let t = Dist.Top.aggregate ~now ~states (observe ~now (fleet ~cost_done:500)) in
  let remaining = Dist.Cost.window_cost 100 200 in
  check_bool "remaining windows priced at (q+1)^2" true
    (Float.abs (t.Dist.Top.remaining_cost -. remaining) < 1e-6);
  (match t.Dist.Top.eta_s with
  | Some eta ->
      (* cost rate is 500 / 10 = 50 units/s *)
      check_bool "eta = remaining / cost rate" true
        (Float.abs (eta -. (remaining /. 50.)) < 1e-3)
  | None -> Alcotest.fail "no ETA");
  (* a fleet that reports no cost progress has no ETA *)
  let t' = Dist.Top.aggregate ~now ~states (observe ~now (fleet ~cost_done:0)) in
  check_bool "no cost progress, no ETA" true (t'.Dist.Top.eta_s = None)

let tests =
  ( "heal",
    [
      Alcotest.test_case "cost windows tile the triangle" `Quick
        test_cost_tile_covers;
      Alcotest.test_case "window costs are additive" `Quick
        test_cost_window_additive;
      Alcotest.test_case "power cut shrinks deep-q windows" `Quick
        test_cost_tile_shrinks_deep_windows;
      Alcotest.test_case "manifest round-trips; legacy model lines still load"
        `Quick test_manifest_round_trip;
      Alcotest.test_case "manifest v1 still loads" `Quick
        test_manifest_v1_loads;
      Alcotest.test_case "manifest with a non-integer field rejected" `Quick
        test_manifest_bad_int_rejected;
      Alcotest.test_case "record naming a non-default table; replace discipline"
        `Quick test_record_non_default_table;
      QCheck_alcotest.to_alcotest prop_first_record_wins;
      QCheck_alcotest.to_alcotest prop_heal_retiling;
      Alcotest.test_case "heal: quarantine -> re-certified bound" `Quick
        test_heal_end_to_end;
      Alcotest.test_case "run: merge quarantine healed by the next round"
        `Quick test_run_heals_merge_quarantine;
      Alcotest.test_case "heal: irreducible windows narrow the quarantine"
        `Quick test_heal_irreducible_narrows;
      Alcotest.test_case "merge reads an older speculator's .spec.tbl record"
        `Quick test_merge_old_spec_record;
      Alcotest.test_case "losing duplicate certifier is discarded" `Quick
        test_duplicate_certifier_discarded;
      Alcotest.test_case "top: ETA prices remaining windows at (q+1)²" `Quick
        test_top_cost_eta;
    ] )
