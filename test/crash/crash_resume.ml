(* Crash-resume integration driver: the ground truth for the
   fault-tolerance layer. A frontier scan is repeatedly SIGKILLed
   mid-flight and resumed from its checkpoints; the final table must be
   identical (as a set of win/lose frontiers) to the one produced by a
   single undisturbed run. Also covers the fault-injection smoke run
   (same verdict, same table, exit 0 under a 2% injected fault rate) and
   the --deadline watchdog (clean exit 0, resumable state).

   Usage: crash_resume EFGAME_CLI_EXE — invoked by `dune build
   @crash-resume`, which passes the freshly built CLI. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("FAIL: " ^ s);
      exit 1)
    fmt

let note fmt = Printf.ksprintf prerr_endline fmt

(* absolute path: the driver chdirs into a scratch directory below *)
let cli =
  if Array.length Sys.argv < 2 then fail "usage: crash_resume EFGAME_CLI_EXE"
  else
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* the big scan the interrupting stages cut short and the small one used
   for the fault smoke (sub-second) *)
let n_big = "56"
let n_smoke = "40"

(* The interrupting stages (SIGKILL, deadline, SIGTERM) are timed as
   shares of the measured wall time of the clean [n_big] scan, never as
   constants, so a faster machine or a faster solver shortens them in
   step. Each stage stops its run with at least [min_left] of that scan
   still to do. *)
let min_left = 0.5
let kill_rounds = 8

(* ---------------------------------------------------------- processes *)

let spawn args =
  Unix.create_process cli
    (Array.of_list (cli :: args))
    Unix.stdin Unix.stdout Unix.stderr

let wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> `Exit c
  | _, Unix.WSIGNALED s -> `Signaled s
  | _, Unix.WSTOPPED s -> fail "child stopped by signal %d" s

let pp_status = function
  | `Exit c -> Printf.sprintf "exit %d" c
  | `Signaled s -> Printf.sprintf "signal %d" s

let run args =
  let st = wait (spawn args) in
  (st, String.concat " " args)

let expect_ok args =
  match run args with
  | `Exit 0, _ -> ()
  | st, cmdline -> fail "%s: %s (wanted exit 0)" cmdline (pp_status st)

(* -------------------------------------------------- table comparison *)

(* A table's observable content is its set of (key, win, lose) exact
   frontiers; everything else (entry order, file layout) is incidental. *)
let frontiers path =
  let cache = Efgame.Cache.create () in
  match Efgame.Persist.load cache path with
  | Error e -> fail "loading %s: %s" path (Format.asprintf "%a" Efgame.Persist.pp_error e)
  | Ok r ->
      if r.Efgame.Persist.salvaged then
        fail "%s required salvage after a clean exit" path;
      Efgame.Cache.fold cache ~init:[] ~f:(fun acc key ~win ~lose ->
          if win >= 0 || lose < max_int then (key, win, lose) :: acc else acc)
      |> List.sort compare

let expect_same_table ~what a b =
  let fa = frontiers a and fb = frontiers b in
  if List.length fa = 0 then fail "%s: %s is empty" what a;
  if fa <> fb then begin
    let missing = List.filter (fun e -> not (List.mem e fb)) fa in
    let extra = List.filter (fun e -> not (List.mem e fa)) fb in
    fail "%s: %s and %s differ (%d vs %d entries; %d missing, %d extra)" what
      a b (List.length fa) (List.length fb) (List.length missing)
      (List.length extra)
  end;
  note "OK  %s: %s == %s (%d frontier entries)" what a b (List.length fa)

(* ----------------------------------------------------- JSON spot read *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let json_field json name =
  let pat = Printf.sprintf "\"%s\":" name in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then fail "field %S not found" name
    else if String.sub json i m = pat then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop i =
    if i >= n || json.[i] = ',' || json.[i] = '}' then i else stop (i + 1)
  in
  String.sub json start (stop start - start)

let expect_field path name want =
  let got = json_field (read_file path) name in
  if got <> want then fail "%s: %s = %s (wanted %s)" path name got want

(* ------------------------------------------------------------- stages *)

let () =
  (* a scratch directory of our own: the driver spawns from the dune
     sandbox but must not litter it *)
  let dir =
    Printf.sprintf "%s/efgame-crash-%d"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  Unix.mkdir dir 0o755;
  Sys.chdir dir;
  note "workdir: %s" dir;

  (* 1. the reference: one undisturbed exhaustive scan *)
  note "--- clean reference scan (frontier %s)" n_big;
  let t0 = Unix.gettimeofday () in
  expect_ok
    [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "clean.tbl"; "--json";
      "clean.json"; "-q" ];
  let clean_s = Unix.gettimeofday () -. t0 in
  expect_field "clean.json" "outcome" "\"exhausted\"";
  let share f = clean_s *. (1. -. min_left) *. f in
  note "OK  clean scan took %.3f s; interrupting stages stop within %.3f s"
    clean_s (share 1.);

  (* 2. kill -9 loop: SIGKILL the scan mid-flight, resume, repeat.
     Checkpoints land every scheduler tick (--checkpoint 0.01), so each
     murdered run leaves progress behind. Kill i of [kill_rounds] lands
     after i/[kill_rounds] of the allowed share of the clean scan: the
     first lands early enough to hit even a fresh run, and the growing
     delays add up to more than the whole scan, guaranteeing forward
     progress even if early kills land before the first checkpoint.
     After the kill budget is spent the last run is left alone, bounding
     the loop. *)
  note "--- kill -9 / resume loop";
  let kills = ref 0 and attempts = ref 0 and finished = ref false in
  while (not !finished) && !attempts < 40 do
    incr attempts;
    let pid =
      spawn
        [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "crash.tbl";
          "--resume"; "--checkpoint"; "0.01"; "--json"; "crash.json"; "-q" ]
    in
    if !attempts <= kill_rounds then begin
      Unix.sleepf (share (float_of_int !attempts /. float_of_int kill_rounds));
      (try Unix.kill pid Sys.sigkill
       with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
      match wait pid with
      | `Exit 0 -> finished := true
      | `Signaled _ -> incr kills
      | `Exit c -> fail "killed-loop run exited %d" c
    end
    else
      match wait pid with
      | `Exit 0 -> finished := true
      | st -> fail "uninterrupted resume run: %s" (pp_status st)
  done;
  if not !finished then fail "crash loop never completed in %d attempts" !attempts;
  if !kills = 0 then fail "no run was actually killed — test proved nothing";
  note "OK  completed after %d attempts (%d SIGKILLs absorbed)" !attempts !kills;

  (* the final table must match the undisturbed run bit-for-bit at the
     frontier level *)
  expect_same_table ~what:"crash-resume" "crash.tbl" "clean.tbl";

  (* the snapshot itself must validate as pristine *)
  (match run [ "table"; "info"; "crash.tbl" ] with
  | `Exit 0, _ -> note "OK  table info: crash.tbl pristine"
  | st, _ -> fail "table info crash.tbl: %s (wanted exit 0)" (pp_status st));

  (* 3. fault-injection smoke: a 2%-rate injected-fault scan must still
     exit 0 with an identical verdict and an identical table *)
  note "--- fault-injection smoke (frontier %s, rate 0.02)" n_smoke;
  expect_ok
    [ "--frontier"; n_smoke; "--jobs"; "2"; "--table"; "smoke.tbl"; "--json";
      "smoke.json"; "-q" ];
  expect_ok
    [ "--frontier"; n_smoke; "--jobs"; "2"; "--inject-faults"; "42:0.02";
      "--table"; "fault.tbl"; "--json"; "fault.json"; "-q" ];
  let clean_outcome = json_field (read_file "smoke.json") "outcome" in
  expect_field "fault.json" "outcome" clean_outcome;
  expect_field "fault.json" "pair" (json_field (read_file "smoke.json") "pair");
  expect_same_table ~what:"fault smoke" "fault.tbl" "smoke.tbl";

  (* 4. deadline watchdog: the scan stops itself, exits 0 with resumable
     state, and a deadline-free resume completes to the reference. The
     deadline is half the allowed share, so the scan cannot win the race
     by finishing first. *)
  let deadline = share 0.5 in
  note "--- deadline watchdog (%.3f s)" deadline;
  expect_ok
    [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "dl.tbl"; "--checkpoint";
      "0.05"; "--deadline"; Printf.sprintf "%.3f" deadline; "--json"; "dl.json";
      "-q" ];
  expect_field "dl.json" "outcome" "\"interrupted\"";
  expect_field "dl.json" "stop_reason" "\"deadline\"";
  expect_ok
    [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "dl.tbl"; "--resume";
      "--json"; "dl2.json"; "-q" ];
  expect_field "dl2.json" "outcome" "\"exhausted\"";
  expect_same_table ~what:"deadline resume" "dl.tbl" "clean.tbl";

  (* 5. flight recorder post-mortem: SIGTERM a telemetry-publishing
     scan mid-flight. The worker checkpoints and exits 143; the flight
     ring it leaves behind must parse, record the signal, and end on
     the final checkpoint — the dump at exit runs after that save. *)
  note "--- SIGTERM flight recorder";
  let term_pid =
    spawn
      [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "term.tbl";
        "--checkpoint"; "0.01"; "--flight"; "flight.json"; "--telemetry";
        "telemetry.json"; "--telemetry-interval"; "0.1"; "--json";
        "term.json"; "-q" ]
  in
  Unix.sleepf (share 0.5);
  (try Unix.kill term_pid Sys.sigterm
   with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  (match wait term_pid with
  | `Exit 143 -> note "OK  SIGTERMed scan checkpointed and exited 143"
  | `Exit 0 ->
      (* the scan beat the timer; the flight file must still be valid *)
      note "OK  scan finished before the SIGTERM landed"
  | st -> fail "SIGTERMed scan: %s (wanted exit 143)" (pp_status st));
  (match Obs.Jsonr.of_file "flight.json" with
  | Error e -> fail "flight.json does not parse: %s" e
  | Ok j -> (
      (match Obs.Jsonr.mem_string "schema" j with
      | Some "efgame-flight/1" -> ()
      | other ->
          fail "flight.json schema: %s"
            (Option.value ~default:"missing" other));
      match Obs.Jsonr.mem_list "events" j with
      | None | Some [] -> fail "flight.json holds no events"
      | Some events ->
          let kinds =
            List.filter_map (fun e -> Obs.Jsonr.mem_string "kind" e) events
          in
          let last = List.nth kinds (List.length kinds - 1) in
          if last <> "checkpoint" then
            fail "flight.json last event is %S (wanted the final checkpoint)"
              last;
          if not (List.mem "signal" kinds) then
            note "  (signal event rotated out of the ring — acceptable)"
          else note "OK  flight.json: %d events, signal + final checkpoint"
              (List.length events)));
  (match Obs.Jsonr.of_file "telemetry.json" with
  | Error e -> fail "telemetry.json does not parse: %s" e
  | Ok j -> (
      match Obs.Jsonr.mem_string "schema" j with
      | Some "efgame-telemetry/1" ->
          note "OK  telemetry.json: valid final snapshot"
      | other ->
          fail "telemetry.json schema: %s"
            (Option.value ~default:"missing" other)));
  (* the interrupted state is resumable to the reference, as ever *)
  expect_ok
    [ "--frontier"; n_big; "--jobs"; "2"; "--table"; "term.tbl"; "--resume";
      "--json"; "term2.json"; "-q" ];
  expect_field "term2.json" "outcome" "\"exhausted\"";
  expect_same_table ~what:"post-SIGTERM resume" "term.tbl" "clean.tbl";

  note "crash-resume: all stages passed"
