(* Multi-process torture run for the distributed-scan layer: the ground
   truth that lease-based sharding survives real SIGKILLs on a hostile
   store. A shared scan directory is worked by several concurrent `shard
   work` processes (fault injection armed, nfs-coarse chaos store) while
   the driver murders them mid-shard; orphaned leases must go stale and
   be reclaimed, the directory must still reach all-done, and the merged
   table must match an undisturbed single-process scan
   frontier-for-frontier, with a clean 64-pair audit on top. A second
   directory then goes through the unattended `shard run` controller
   under chaos, with SIGKILLed workers, a throttled straggler and a
   poisoned shard.

   Stages:
     1. clean reference: one undisturbed `--frontier N` scan
     2. orphan a lease: start one worker, SIGKILL it as soon as its
        first lease appears, verify the orphan is left behind
     3. worker fleet: 3 concurrent workers under fault injection and
        the nfs-coarse chaos store, with periodic SIGKILL + respawn;
        wait for the survivors to drain; injected faults must have fired
     4. every lease reclaim must have been exercised (worker logs),
        `shard status` must report all-done (exit 0)
     5. `shard merge` must be complete, and the merged table identical
        (as frontier sets) to the reference
     6. `shard audit --sample 64` must pass with zero mismatches
     7. chaos convergence on a fresh directory: shard 0 pre-quarantined,
        a throttled straggler holding a shard, then `shard run` (its
        workers on the chaos store) with at least 2 of its workers
        SIGKILLed; it must converge (exit 0), heal the poison, rescue
        the straggler's shard by speculation, leave a record for every
        shard, and merge a table identical to the reference

   Usage: shard_torture EFGAME_CLI_EXE — invoked by `dune build
   @shard-torture`, which passes the freshly built CLI. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("FAIL: " ^ s);
      exit 1)
    fmt

let note fmt = Printf.ksprintf prerr_endline fmt

(* absolute path: the driver chdirs into a scratch directory below *)
let cli =
  if Array.length Sys.argv < 2 then fail "usage: shard_torture EFGAME_CLI_EXE"
  else
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* the workload: k = 3 over all pairs with q ≤ 56 — exhaustive (the
   minimal ≡₃ pair is far above), so coverage is deterministic and the
   sharded scan must reproduce the reference exactly *)
let frontier_n = "56"
let shards = 12
let ttl = 1.0 (* seconds: short, so orphaned leases go stale quickly *)
let fleet = 3

(* ---------------------------------------------------------- processes *)

let spawn ?(env = [||]) ?log args =
  let out =
    match log with
    | None -> Unix.stdout
    | Some path ->
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let err =
    match log with None -> Unix.stderr | Some _ -> out
  in
  let pid =
    Unix.create_process_env cli (Array.of_list (cli :: args))
      (Array.append (Unix.environment ()) env)
      Unix.stdin out err
  in
  if log <> None then Unix.close out;
  pid

let status_of = function
  | Unix.WEXITED c -> `Exit c
  | Unix.WSIGNALED s -> `Signaled s
  | Unix.WSTOPPED s -> fail "child stopped by signal %d" s

let wait pid = status_of (snd (Unix.waitpid [] pid))

let pp_status = function
  | `Exit c -> Printf.sprintf "exit %d" c
  | `Signaled s -> Printf.sprintf "signal %d" s

let run args =
  let st = wait (spawn args) in
  (st, String.concat " " args)

let expect_exit want args =
  match run args with
  | `Exit c, _ when c = want -> ()
  | st, cmdline -> fail "%s: %s (wanted exit %d)" cmdline (pp_status st) want

let expect_ok args = expect_exit 0 args

let kill_hard pid =
  try Unix.kill pid Sys.sigkill
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

(* -------------------------------------------------- table comparison *)

(* A table's observable content is its set of (key, win, lose) exact
   frontiers; everything else (entry order, file layout, the proven
   bound in the header) is incidental. *)
let frontiers path =
  let cache = Efgame.Cache.create () in
  match Efgame.Persist.load cache path with
  | Error e ->
      fail "loading %s: %s" path (Format.asprintf "%a" Efgame.Persist.pp_error e)
  | Ok r ->
      if r.Efgame.Persist.salvaged then
        fail "%s required salvage after a clean finish" path;
      Efgame.Cache.fold cache ~init:[] ~f:(fun acc key ~win ~lose ->
          if win >= 0 || lose < max_int then (key, win, lose) :: acc else acc)
      |> List.sort compare

let expect_same_table ~what a b =
  let fa = frontiers a and fb = frontiers b in
  if List.length fa = 0 then fail "%s: %s is empty" what a;
  if fa <> fb then begin
    let missing = List.filter (fun e -> not (List.mem e fb)) fa in
    let extra = List.filter (fun e -> not (List.mem e fa)) fb in
    fail "%s: %s and %s differ (%d vs %d entries; %d missing, %d extra)" what a
      b (List.length fa) (List.length fb) (List.length missing)
      (List.length extra)
  end;
  note "OK  %s: %s == %s (%d frontier entries)" what a b (List.length fa)

(* --------------------------------------------------------- small I/O *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let count_lines_with needle path =
  if not (Sys.file_exists path) then 0
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> contains l needle)
    |> List.length

let leases dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".lease")

(* pids of the current lease holders (primary and speculative leases):
   a lease file holds its owner, host:pid:nonce *)
let lease_pids dir =
  List.filter_map
    (fun f ->
      match
        String.split_on_char ':' (String.trim (read_file (Filename.concat dir f)))
      with
      | [ _; pid; _ ] -> int_of_string_opt pid
      | _ -> None
      | exception Sys_error _ -> None (* released between readdir and read *))
    (leases dir)

let json_of path =
  match Obs.Jsonr.of_file path with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

(* total fault-injection fires recorded in a worker's --json summary
   (absent when the worker was SIGKILLed) *)
let fault_fires path =
  if not (Sys.file_exists path) then 0
  else
    match Obs.Jsonr.(Option.bind (member "faults" (json_of path)) (member "sites")) with
    | None -> fail "%s: no fault-injection record" path
    | Some sites ->
        List.fold_left
          (fun acc (_, site) ->
            acc + Option.value ~default:0 (Obs.Jsonr.mem_int "fires" site))
          0
          (Option.value ~default:[] (Obs.Jsonr.to_obj sites))

(* ------------------------------------------------------------- stages *)

let sd = "sd"
let log_of i = Printf.sprintf "worker-%02d.log" i
let chaos i = [| Printf.sprintf "EFGAME_CHAOS=nfs-coarse:%d" i |]

let worker_args i =
  [
    "shard"; "work"; sd; "--ttl"; Printf.sprintf "%g" ttl; "--attempts"; "3";
    "--max-requeues"; "5"; "--json"; Printf.sprintf "worker-%02d.json" i;
    (* deterministic per-worker fault stream: persist I/O, scheduler
       claims, dist claim/certify sites all fire at 2% *)
    "--inject-faults"; Printf.sprintf "%d:0.02" (100 + i);
  ]

let () =
  let dir =
    Printf.sprintf "%s/efgame-shard-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  note "workdir: %s" dir;

  (* 1. the reference: one undisturbed single-process exhaustive scan *)
  note "--- clean reference scan (frontier %s)" frontier_n;
  expect_ok [ "--frontier"; frontier_n; "--table"; "clean.tbl"; "-q" ];

  (* 2. initialize the shared directory and orphan a lease: kill a lone
     worker the moment its first claim lands, so a stale lease is
     guaranteed to be waiting when the fleet arrives *)
  expect_ok
    [ "shard"; "init"; sd; "-k"; "3"; "--max"; frontier_n; "--shards";
      string_of_int shards; "-q" ];
  note "--- orphaning a lease (SIGKILL on first claim)";
  let orphaned = ref false in
  let attempts = ref 0 in
  while (not !orphaned) && !attempts < 5 do
    incr attempts;
    let pid = spawn ~log:(log_of 0) (worker_args 0) in
    let deadline = Unix.gettimeofday () +. 10. in
    while leases sd = [] && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.005
    done;
    kill_hard pid;
    (match wait pid with
    | `Signaled _ -> ()
    | `Exit c -> fail "worker 0 finished before the kill landed (exit %d)" c);
    (* the kill may have raced a release; only an orphan that survived
       the murder proves anything *)
    if leases sd <> [] then orphaned := true
    else note "    kill raced a lease release; retrying"
  done;
  if not !orphaned then fail "could not orphan a lease in %d attempts" !attempts;
  note "OK  orphan lease left behind: %s" (String.concat ", " (leases sd));

  (* 3. the fleet: 3 concurrent workers under fault injection on the
     nfs-coarse chaos store (coarse mtimes, skewed clocks, delayed
     visibility, torn creates, transient I/O faults), killed and
     respawned a few times mid-run. Wait past the TTL first so the
     orphan is unambiguously stale. *)
  note "--- worker fleet (%d concurrent, nfs-coarse, SIGKILL storm)" fleet;
  Unix.sleepf (ttl +. 0.5);
  let next_id = ref 1 in
  let fresh_worker () =
    let i = !next_id in
    incr next_id;
    (i, spawn ~env:(chaos i) ~log:(log_of i) (worker_args i))
  in
  let workers = ref (List.init fleet (fun _ -> fresh_worker ())) in
  let kills = ref 0 in
  (* three storm cycles: murder the oldest worker, replace it *)
  for _cycle = 1 to 3 do
    Unix.sleepf 0.4;
    match !workers with
    | [] -> fail "fleet is empty mid-storm"
    | (i, pid) :: rest ->
        kill_hard pid;
        (match wait pid with
        | `Signaled _ ->
            incr kills;
            note "    SIGKILLed worker %02d" i
        | `Exit 0 -> note "    worker %02d finished before its murder" i
        | `Exit c -> fail "worker %02d exited %d mid-storm" i c);
        workers := rest @ [ fresh_worker () ]
  done;
  (* let the survivors drain the directory *)
  List.iter
    (fun (i, pid) ->
      match wait pid with
      | `Exit 0 -> ()
      | st -> fail "worker %02d: %s (wanted exit 0)" i (pp_status st))
    !workers;
  note "OK  fleet drained (%d workers SIGKILLed overall)" (!kills + 1);
  let fleet_ids = List.init (!next_id - 1) succ in
  List.iter
    (fun i ->
      if count_lines_with "hostile store armed" (log_of i) = 0 then
        fail "worker %02d ran without the chaos store" i)
    fleet_ids;
  let fires =
    List.fold_left
      (fun acc i -> acc + fault_fires (Printf.sprintf "worker-%02d.json" i))
      0 fleet_ids
  in
  if fires = 0 then fail "fault injection armed but nothing fired";
  note "OK  chaos store armed in every worker; %d injected fault(s) fired" fires;

  (* 4. at least one stale-lease reclaim must actually have happened,
     and the directory must be all-done *)
  let reclaims =
    List.init !next_id (fun i ->
        count_lines_with "reclaimed stale shard" (log_of i))
    |> List.fold_left ( + ) 0
  in
  if reclaims = 0 then
    fail "no stale lease was ever reclaimed — the torture proved nothing";
  note "OK  %d stale-lease reclaim(s) exercised" reclaims;
  expect_ok [ "shard"; "status"; sd; "--json"; "status.json"; "-q" ];
  let status = read_file "status.json" in
  if not (contains status "\"quarantined\":0") then
    fail "quarantined shards after the storm: %s" status;
  note "OK  shard status: all done, nothing quarantined";

  (* 5. merge must be complete and identical to the reference *)
  expect_ok [ "shard"; "merge"; sd; "merged.tbl"; "-q" ];
  expect_ok [ "table"; "info"; "merged.tbl" ];
  expect_same_table ~what:"sharded vs single-process" "merged.tbl" "clean.tbl";

  (* 6. the audit re-solves a 64-pair sample from scratch: zero
     mismatches allowed *)
  expect_ok [ "shard"; "audit"; sd; "merged.tbl"; "--sample"; "64"; "-q" ];
  note "OK  audit: 64-pair sample, zero mismatches";

  (* 7. chaos convergence: the unattended controller on a fresh
     directory. Its workers inherit the chaos store from its
     environment (only `shard work` arms it; the controller itself
     stays on posix). *)
  note "--- chaos convergence (shard run, poison, straggler, SIGKILLs)";
  let cd = "cd" in
  expect_ok
    [ "shard"; "init"; cd; "-k"; "3"; "--max"; frontier_n; "--shards";
      string_of_int shards; "-q" ];
  (match
     Dist.Manifest.quarantine ~dir:cd ~owner:"torture-poison" 0
       "injected: poison (healable)"
   with
  | Ok () -> ()
  | Error msg -> fail "poisoning shard 0: %s" msg);
  let chaos_ttl = "4" in
  let straggler =
    spawn ~env:(chaos 1) ~log:"straggler.log"
      [ "shard"; "work"; cd; "--ttl"; chaos_ttl; "--throttle"; "3";
        "--heartbeat-every"; "0.5"; "-q" ]
  in
  (* the straggler's head start: it must hold a shard when the run's
     workers arrive, so only speculation can finish that shard early *)
  Unix.sleepf 0.75;
  let run_pid =
    spawn ~env:(chaos 2) ~log:"run.log"
      [ "shard"; "run"; cd; "run.tbl"; "--workers"; "3"; "--ttl"; chaos_ttl;
        "--json"; "run.json" ]
  in
  (* SIGKILL the first two lease holders that are not the straggler:
     those can only be the run's workers *)
  let killed = ref [] and deadline = Unix.gettimeofday () +. 300. in
  let rec supervise () =
    match Unix.waitpid [ Unix.WNOHANG ] run_pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          List.iter kill_hard [ run_pid; straggler ];
          fail "shard run still running after 300 s"
        end;
        List.iter
          (fun pid ->
            if
              pid <> straggler && List.length !killed < 2
              && not (List.mem pid !killed)
            then begin
              kill_hard pid;
              killed := pid :: !killed;
              note "    SIGKILLed run worker pid %d" pid
            end)
          (lease_pids cd);
        Unix.sleepf 0.005;
        supervise ()
    | _, st -> status_of st
  in
  let st = supervise () in
  (try Unix.kill straggler Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait straggler);
  if st <> `Exit 0 then
    fail "shard run: %s (wanted exit 0; see %s/run.log)" (pp_status st) cd;
  if List.length !killed < 2 then
    fail "only %d run worker(s) SIGKILLed (want >= 2)" (List.length !killed);
  let run = json_of "run.json" in
  if Obs.Jsonr.(Option.bind (member "converged" run) to_bool) <> Some true then
    fail "shard run did not report converged";
  let healed = Option.value ~default:0 (Obs.Jsonr.mem_int "healed" run) in
  if healed < 1 then fail "the poisoned shard was not healed";
  note "OK  shard run converged with %d worker(s) SIGKILLed, %d healed"
    (List.length !killed) healed;
  let m = match Dist.Manifest.load ~dir:cd with Ok m -> m | Error e -> fail "%s" e in
  let spec_records =
    Array.fold_left
      (fun acc (s : Dist.Manifest.shard) ->
        match Dist.Record.read ~dir:cd s.id with
        | Ok { Dist.Record.table = Some _; _ } -> acc + 1
        | Ok _ -> acc
        | Error msg -> fail "shard %d has no completion record: %s" s.id msg)
      0 m.shards
  in
  (* a heal re-certifies under the plain path, so the heartbeats are
     the evidence that survives it *)
  let spec_wins =
    List.fold_left
      (fun acc (o : Dist.Heartbeat.observed) ->
        acc + o.ob_view.Dist.Heartbeat.v_spec_wins)
      0
      (fst (Dist.Heartbeat.list ~dir:cd))
  in
  if spec_records + spec_wins = 0 then
    fail "no speculative rescue of the straggler's shard";
  note "OK  every shard recorded; %d speculative record(s), %d win(s)"
    spec_records spec_wins;
  expect_same_table ~what:"chaos convergence vs single-process" "run.tbl"
    "clean.tbl";

  note "shard-torture: all stages passed"
