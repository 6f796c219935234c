(* efgame_cli — decide ≡_k for the FC Ehrenfeucht-Fraïssé game.

   Examples:
     efgame_cli aaa aaaa --rounds 1
     efgame_cli aa aaa --rounds 2 --explain
     efgame_cli abab baba --rounds 2 --table t.tbl --stats
                                             (decide through a persisted table)
     efgame_cli --scan 2 --max 14            (minimal unary pair search)
     efgame_cli --classes 1 --max 8          (≡_k classes of a^0..a^max)
     efgame_cli --frontier 384 --table e2.tbl --json scan.json
                                             (exhaustive ≡₃ scan, checkpointed)
     efgame_cli --frontier 384 --table e2.tbl --resume
                                             (continue a killed scan)
     efgame_cli table info e2.tbl            (validate a snapshot)
     efgame_cli table merge all.tbl a.tbl b.tbl

   Exit codes: 0 success (including a deadline-stopped scan, whose state
   is resumable); 130/143 scan interrupted by SIGINT/SIGTERM after a
   final checkpoint; 2 usage or unrecoverable table error; 3 verdict
   Unknown; 4 final checkpoint failed after retries. *)

open Cmdliner

let pp_word ppf w = Words.Word.pp ppf w

type stop_reason = Signal of Rt.Signal.source | Deadline

(* Usage errors and unreadable inputs: log and exit 2, the code every
   command reserves for them. *)
let fail ?(tag = "shard") fmt =
  Format.kasprintf
    (fun msg ->
      Obs.Log.err ~tag "%s" msg;
      exit 2)
    fmt

let deadline_of = Option.fold ~none:Rt.Deadline.none ~some:Rt.Deadline.after

let arm_faults spec =
  match Rt.Fault.setup ?spec () with
  | Ok () ->
      if Rt.Fault.enabled () then
        Obs.Log.warn ~tag:"fault" "fault injection armed"
  | Error msg -> fail ~tag:"fault" "%s" msg

(* Output files are written when the work is done; refuse an
   unwritable path before any work instead of raising after it. *)
let check_output ~flag = function
  | Some path -> (
      match Obs.Jsonw.writable path with
      | Ok () -> ()
      | Error why -> fail ~tag:"usage" "%s: cannot write %s: %s" flag path why)
  | None -> ()

(* A table is saved as a temp file renamed over FILE, so it is FILE's
   directory that must be writable (a read-only FILE is fine). Refuse a
   bad path before the scan instead of failing every checkpoint. *)
let check_table = function
  | Some file ->
      let dir = Filename.dirname file in
      let why =
        if Sys.file_exists file && Sys.is_directory file then
          Some "is a directory"
        else if not (Sys.file_exists dir && Sys.is_directory dir) then
          Some (dir ^ ": no such directory")
        else
          match Unix.access dir [ Unix.W_OK ] with
          | () -> None
          | exception Unix.Unix_error (e, _, _) ->
              Some (dir ^ ": " ^ Unix.error_message e)
      in
      Option.iter (fail ~tag:"usage" "--table: cannot write %s: %s" file) why
  | None -> ()

let arm_metrics path =
  Obs.Metrics.enable ();
  at_exit (fun () -> Obs.Metrics.dump ~path)

(* the flight ring dumps from the signal path (handlers run at safe
   points, so file I/O is fine there) and again at exit — the exit dump
   runs after the final checkpoint, so a SIGTERMed process's last
   flight events include that checkpoint *)
let arm_flight path =
  Obs.Events.enable ();
  Rt.Signal.add_hook (fun _ -> Obs.Events.dump ~path);
  at_exit (fun () -> Obs.Events.dump ~path)

(* ---------------------------------------------------------------- JSON *)

let write_scan_json ~path ~mode ~k ~max_n ~jobs ~budget ~outcome ~stop_reason
    ~stats ~wall_s ~range ~bound ~table =
  let open Efgame.Witness in
  let module J = Obs.Jsonw in
  let lookups = stats.cache_hits + stats.cache_misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int stats.cache_hits /. float_of_int lookups
  in
  J.to_file path (fun w ->
      J.obj w (fun w ->
          J.field_string w "schema" "efgame-scan/1";
          J.field_string w "mode" mode;
          J.field_int w "k" k;
          J.field_int w "max_n" max_n;
          J.field_int w "jobs" jobs;
          J.field_int w "budget" budget;
          J.field_string w "outcome"
            (match outcome with
            | Found _ -> "found"
            | Exhausted _ -> "exhausted"
            | Inconclusive _ -> "inconclusive"
            | Interrupted _ -> "interrupted");
          J.field w "stop_reason" (fun w ->
              match stop_reason with
              | Some (Signal src) -> J.string w (Rt.Signal.name src)
              | Some Deadline -> J.string w "deadline"
              | None -> J.null w);
          J.field w "pair" (fun w ->
              match outcome with
              | Found (p, q) ->
                  J.arr w (fun w ->
                      J.int w p;
                      J.int w q)
              | Exhausted _ | Inconclusive _ | Interrupted _ -> J.null w);
          J.field_int w "unknown_pairs"
            (match outcome with
            | Inconclusive (_, us) -> List.length us
            | Found _ | Exhausted _ | Interrupted _ -> 0);
          J.field_float w "wall_s" wall_s;
          J.field w "range" (fun w ->
              let lo, hi = range in
              J.arr w (fun w ->
                  J.int w lo;
                  J.int w hi));
          J.field w "proven_bound" (fun w ->
              match bound with
              | Some (k, n) ->
                  J.arr w (fun w ->
                      J.int w k;
                      J.int w n)
              | None -> J.null w);
          J.field_int w "pairs" stats.pairs;
          J.field_int w "nodes" stats.nodes;
          J.field_int w "chunks" stats.chunks;
          J.field_int w "cache_hits" stats.cache_hits;
          J.field_int w "cache_misses" stats.cache_misses;
          J.field_float ~prec:4 w "cache_hit_rate" hit_rate;
          J.field w "faults" (fun w ->
              if Rt.Fault.enabled () then Rt.Fault.write_json w else J.null w);
          J.field w "table" (fun w ->
              match table with
              | None -> J.null w
              | Some (file, loaded, saved) ->
                  J.obj w (fun w ->
                      J.field_string w "path" file;
                      J.field_int w "loaded_entries" loaded;
                      J.field_int w "saved_entries" saved))))

(* ------------------------------------------------------------- driver *)

let run () words rounds explain budget scan classes frontier max_n jobs stats
    table resume salvage checkpoint_s deadline_s inject_faults json trace
    metrics telemetry telemetry_interval flight =
  (* a word pair is decided on one domain: its last round is closed-form,
     so there is no work left to fan out *)
  if jobs > 1 && frontier = None && scan = None && classes = None then
    fail ~tag:"jobs" "--jobs fans out --scan, --frontier and --classes \
                      only; a word pair is decided on one domain";
  let non_negative flag n =
    if n < 0 then fail ~tag:"usage" "%s must be non-negative, got %d" flag n
  in
  non_negative "--rounds" rounds;
  non_negative "--max" max_n;
  Option.iter (non_negative "--scan") scan;
  Option.iter (non_negative "--classes") classes;
  Option.iter (non_negative "--frontier") frontier;
  check_output ~flag:"--metrics" metrics;
  check_output ~flag:"--trace" trace;
  check_output ~flag:"--json" json;
  check_table table;
  arm_faults inject_faults;
  Rt.Signal.install ();
  (* telemetry sinks flush on every exit path via at_exit *)
  (match trace with
  | Some path ->
      Obs.Trace.start ~path ();
      at_exit Obs.Trace.finish
  | None -> ());
  Option.iter arm_metrics metrics;
  Option.iter arm_flight flight;
  let progress_pairs = Atomic.make 0 in
  (match telemetry with
  | Some path ->
      (* a telemetry snapshot embeds the merged metrics, so the counters
         must be armed even without --metrics *)
      Obs.Metrics.enable ();
      let t =
        Obs.Telemetry.start ~interval:telemetry_interval ?flight
          ~progress:(fun () -> [ ("pairs", Atomic.get progress_pairs) ])
          ~path ()
      in
      at_exit (fun () -> Obs.Telemetry.stop_publisher t)
  | None -> ());
  (* a frontier scan is table-driven by definition, and a scan's
     --jobs > 1 workers share one table; otherwise only --table asks
     for one *)
  let cache =
    if jobs > 1 || Option.is_some frontier || Option.is_some table then
      Some (Efgame.Cache.create ())
    else None
  in
  let engine =
    match (cache, jobs) with
    | Some c, j when j > 1 -> Some (Efgame.Witness.Parallel (c, j))
    | Some c, _ -> Some (Efgame.Witness.Cached c)
    | None, _ -> None
  in
  let deadline = deadline_of deadline_s in
  (* First trigger wins and latches: every subsequent poll is one ref
     read, and the reason survives to pick the exit code. *)
  let stop_reason = ref None in
  let stop () =
    match !stop_reason with
    | Some _ -> true
    | None -> (
        match Rt.Signal.pending () with
        | Some src ->
            stop_reason := Some (Signal src);
            true
        | None ->
            if Rt.Deadline.expired deadline then begin
              stop_reason := Some Deadline;
              true
            end
            else false)
  in
  let loaded, loaded_bound =
    match (cache, table) with
    | Some c, Some file when resume ->
        if Sys.file_exists file || Sys.file_exists (file ^ ".bak") then (
          match Efgame.Persist.recover ~salvage c file with
          | Ok (src, r) ->
              if r.Efgame.Persist.salvaged then
                Obs.Log.warn ~tag:"table"
                  "salvaged %d entries from %s (%d damaged regions dropped)"
                  r.Efgame.Persist.entries src r.Efgame.Persist.dropped
              else
                Obs.Log.info ~tag:"table" "resumed from %s (%d entries)" src
                  r.Efgame.Persist.entries;
              Efgame.Cache.reset_counters c;
              (r.Efgame.Persist.entries, r.Efgame.Persist.bound)
          | Error e ->
              fail ~tag:"table" "cannot resume from %s: %a%s" file
                Efgame.Persist.pp_error e
                (if salvage then "" else " (try --salvage)"))
        else (
          Obs.Log.warn ~tag:"table"
            "%s does not exist yet; starting a fresh scan" file;
          (0, None))
    | _ -> (0, None)
  in
  (* Checkpoint I/O never aborts a scan outright: transient failures
     (ENOSPC, injected faults) get capped-exponential retries, a
     periodic checkpoint that still fails is skipped (the next tick
     tries again), and only a failed *final* save — actual lost work —
     is an error exit. *)
  let save_table ?bound ~final () =
    let bound = match bound with Some _ as b -> b | None -> loaded_bound in
    match (cache, table) with
    | Some c, Some file -> (
        match
          Rt.Backoff.retry
            ~on_retry:(fun ~attempt ~delay ->
              Obs.Log.warn ~tag:"table"
                "checkpoint to %s failed; attempt %d after %.2fs backoff" file
                attempt delay)
            (fun () -> Efgame.Persist.save ?bound c file)
        with
        | Ok n ->
            Obs.Log.info ~tag:"table" "checkpoint: %d entries -> %s" n file;
            n
        | Error e ->
            Obs.Log.err ~tag:"table" "checkpoint to %s failed for good: %a"
              file Efgame.Persist.pp_error e;
            if final then exit 4;
            0)
    | _ -> 0
  in
  let print_cache_stats () =
    match cache with
    | Some c when stats ->
        Format.printf "cache: %a@." Efgame.Cache.pp_stats (Efgame.Cache.stats c)
    | _ -> ()
  in
  let run_scan ~mode ~k ~max_n =
    (* Incremental frontier: a strictly-clean resume from a table whose
       header proves "no ≡_k pair with q ≤ M" scans only the window of
       new pairs (indices from M·(M+1)/2). M ≥ max_n degenerates to an
       empty window — everything asked for is already proven. A bound
       recorded at a different k cannot shrink this scan (it still
       rides along in the header, see [save_table]). *)
    let total = max_n * (max_n + 1) / 2 in
    let range_lo =
      match loaded_bound with
      | Some (k', m) when k' = k -> min total (m * (m + 1) / 2)
      | _ -> 0
    in
    if range_lo > 0 then
      Obs.Log.info ~tag:"scan"
        "proven bound q ≤ %d loaded: scanning %d of %d pairs"
        (match loaded_bound with Some (_, m) -> m | None -> 0)
        (total - range_lo) total;
    let last_save = ref (Unix.gettimeofday ()) in
    let on_tick ~completed =
      Atomic.set progress_pairs completed;
      if checkpoint_s > 0. then begin
        let now = Unix.gettimeofday () in
        let due = now -. !last_save >= checkpoint_s in
        (* tighten the interval as the deadline nears, so the watchdog
           never stops the scan with a full interval of unsaved work *)
        let deadline_near =
          Rt.Deadline.remaining deadline <= 2. *. checkpoint_s
          && now -. !last_save >= checkpoint_s /. 4.
        in
        if due || deadline_near then begin
          ignore (save_table ~final:false ());
          last_save := Unix.gettimeofday ()
        end
      end
    in
    let last_q = ref 0 in
    let on_q q =
      if q / 32 > !last_q / 32 then begin
        Obs.Log.info ~tag:"scan" "k=%d: q = %d / %d" k q max_n;
        last_q := q
      end
    in
    let t0 = Unix.gettimeofday () in
    let outcome, scan_stats =
      Obs.Trace.with_span "scan"
        ~args:(fun () ->
          [ ("k", Obs.Trace.I k); ("max_n", Obs.Trace.I max_n) ])
        (fun () ->
          Efgame.Witness.scan ~budget ?engine ~range:(range_lo, total) ~on_q
            ~on_tick ~stop ~k ~max_n ())
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    (* the last scheduler tick can trail the final pair; publish the
       drained count so the exit telemetry snapshot is exact *)
    Atomic.set progress_pairs scan_stats.Efgame.Witness.pairs;
    (* the scheduler has drained (or been stopped): always take the
       final checkpoint here, so a clean exit carries resumable state.
       An Exhausted outcome upgrades the header's proven bound — the
       skipped prefix was proven by the loaded bound, the window by this
       scan; anything else preserves the loaded bound unchanged. *)
    let final_bound =
      match (outcome, loaded_bound) with
      | Efgame.Witness.Exhausted _, Some (k', m) when k' = k ->
          Some (k, max m max_n)
      | Efgame.Witness.Exhausted _, _ ->
          (* no usable prior bound ⇒ the window was the whole triangle,
             so the new claim stands on its own *)
          Some (k, max_n)
      | _ -> loaded_bound
    in
    let saved = save_table ?bound:final_bound ~final:true () in
    (match outcome with
    | Efgame.Witness.Found (p, q) ->
        Format.printf "minimal pair for ≡_%d: a^%d ≡ a^%d@." k p q
    | Efgame.Witness.Exhausted n ->
        Format.printf "no pair with q ≤ %d (exhaustive)@."
          (match final_bound with Some (k', m) when k' = k -> m | _ -> n)
    | Efgame.Witness.Inconclusive (n, unknowns) ->
        Format.printf "inconclusive up to %d (budget ran out on %d pairs)@." n
          (List.length unknowns)
    | Efgame.Witness.Interrupted pairs ->
        let why =
          match !stop_reason with
          | Some (Signal src) -> Rt.Signal.name src
          | Some Deadline -> "deadline"
          | None -> "stop"
        in
        Format.printf "interrupted (%s) after %d pairs; state is resumable@."
          why pairs);
    if stats then
      Format.printf
        "scan: %d pairs, %d nodes, %d chunks, %.2f s wall, %d table hits / %d lookups@."
        scan_stats.Efgame.Witness.pairs scan_stats.Efgame.Witness.nodes
        scan_stats.Efgame.Witness.chunks wall_s
        scan_stats.Efgame.Witness.cache_hits
        (scan_stats.Efgame.Witness.cache_hits
        + scan_stats.Efgame.Witness.cache_misses);
    if Rt.Fault.enabled () then
      List.iter
        (fun (site, evals, fires) ->
          if evals > 0 then
            Obs.Log.info ~tag:"fault" "%s: %d fires / %d evals" site fires
              evals)
        (Rt.Fault.stats ());
    (match json with
    | Some path ->
        write_scan_json ~path ~mode ~k ~max_n ~jobs:(max 1 jobs) ~budget
          ~outcome ~stop_reason:!stop_reason ~stats:scan_stats ~wall_s
          ~range:(range_lo, total) ~bound:final_bound
          ~table:(Option.map (fun f -> (f, loaded, saved)) table)
    | None -> ());
    print_cache_stats ();
    match !stop_reason with
    | Some (Signal src) ->
        Obs.Log.warn ~tag:"scan" "%s: checkpointed, exiting"
          (Rt.Signal.name src);
        exit (Rt.Signal.exit_code src)
    | Some Deadline | None ->
        (* a deadline stop is a scheduled success: state saved, exit 0 *)
        exit 0
  in
  match (frontier, scan, classes) with
  | Some n, _, _ ->
      (* the ≡₃ frontier of EXPERIMENTS.md E2: exhaustive over all pairs *)
      run_scan ~mode:"frontier" ~k:3 ~max_n:n
  | None, Some k, _ -> run_scan ~mode:"scan" ~k ~max_n
  | None, None, Some k ->
      (match Efgame.Witness.classes ~budget ?engine ~k ~max_n () with
      | None -> Format.printf "budget exhausted@."
      | Some cls ->
          Format.printf "≡_%d classes of {a^0..a^%d}:@." k max_n;
          List.iter
            (fun members ->
              Format.printf "  {%s}@." (String.concat ", " (List.map string_of_int members)))
            cls);
      ignore (save_table ~final:true ());
      print_cache_stats ();
      exit 0
  | None, None, None -> (
      match words with
      | [ w; v ] ->
          let cfg = Efgame.Game.make w v in
          let verdict, s = Efgame.Game.decide_with_stats ~budget ?cache cfg rounds in
          Format.printf "%a %a_%d %a  (%d nodes, %d memo entries)@." pp_word w
            Efgame.Game.pp_verdict verdict rounds pp_word v s.Efgame.Game.nodes
            s.Efgame.Game.memo_entries;
          if stats then
            Format.printf "table: %d hits, %d misses@." s.Efgame.Game.cache_hits
              s.Efgame.Game.cache_misses;
          ignore (save_table ~final:true ());
          print_cache_stats ();
          if explain && verdict = Efgame.Game.Not_equiv then begin
            match Efgame.Game.winning_line ~budget cfg rounds with
            | None -> Format.printf "no line extracted (budget)@."
            | Some line ->
                Format.printf "Spoiler's winning line:@.";
                List.iter
                  (fun ((m : Efgame.Game.move), r) ->
                    Format.printf "  %a → %s@." Efgame.Game.pp_move m
                      (match r with
                      | Some s -> Format.asprintf "%a" pp_word s
                      | None -> "(no reply preserves the partial isomorphism)"))
                  line
          end;
          exit (match verdict with Efgame.Game.Unknown -> 3 | _ -> 0)
      | _ ->
          Obs.Log.err
            "expected exactly two words (or --scan / --classes / --frontier)";
          exit 2)

(* ---------------------------------------------------- table subcommands *)

let table_info file =
  match Efgame.Persist.inspect file with
  | Ok info ->
      Format.printf "%a@." Efgame.Persist.pp_info info;
      (* 0 = pristine, 1 = damaged but (partially) salvageable — lets CI
         scripts branch without parsing the report *)
      exit
        (if info.Efgame.Persist.checksum_ok && info.Efgame.Persist.damaged = 0
         then 0
         else 1)
  | Error e ->
      Format.eprintf "%s: %a@." file Efgame.Persist.pp_error e;
      exit 2

(* Inputs are streamed one at a time into the accumulating table, and a
   snapshot that fails to load is *skipped*, not fatal: the whole point
   of merging shard outputs is that one corrupt shard must not abort the
   recovery of the others. Exit 0 when every input merged, 1 when the
   output was written from a strict subset, 2 when nothing merged or the
   output could not be written. *)
let table_merge () out ins salvage =
  let cache = Efgame.Cache.create () in
  let merged = ref 0 and skipped = ref 0 in
  List.iter
    (fun file ->
      match Efgame.Persist.load ~salvage cache file with
      | Ok r ->
          incr merged;
          if r.Efgame.Persist.salvaged then
            Format.printf "%s: salvaged %d entries (%d damaged regions dropped)@."
              file r.Efgame.Persist.entries r.Efgame.Persist.dropped
          else Format.printf "%s: %d entries@." file r.Efgame.Persist.entries
      | Error e ->
          incr skipped;
          Obs.Log.err ~tag:"table" "%s: skipped: %a%s" file
            Efgame.Persist.pp_error e
            (if salvage then "" else " (try --salvage)"))
    ins;
  if !merged = 0 then
    fail ~tag:"table" "no input could be merged; not writing %s" out;
  match Efgame.Persist.save cache out with
  | Ok n ->
      Format.printf "merged %d/%d snapshots -> %s (%d entries%s)@." !merged
        (List.length ins) out n
        (if !skipped > 0 then Printf.sprintf ", %d inputs skipped" !skipped
         else "");
      exit (if !skipped > 0 then 1 else 0)
  | Error e ->
      fail ~tag:"table" "cannot write %s: %a" out Efgame.Persist.pp_error e

(* ---------------------------------------------------- trace subcommands *)

(* Merge per-process Chrome trace files into one fleet timeline. Each
   input's events are re-stamped with a fresh pid (1..N in merge
   order), so Perfetto shows one named process per worker with one
   track per domain under it — the (worker, domain) grid. Process-name
   metadata survives; a duplicate label is suffixed with its pid so
   two workers that both called themselves "efgame" stay
   distinguishable. An unreadable input is skipped, not fatal, exactly
   like a corrupt shard table under [table merge]. *)
let trace_merge () out ins =
  check_output ~flag:"trace merge" (Some out);
  let module R = Obs.Jsonr in
  let module J = Obs.Jsonw in
  let seen_labels = Hashtbl.create 8 in
  let merged = ref 0 and skipped = ref 0 in
  let chunks = ref [] in
  List.iter
    (fun file ->
      match R.of_file file with
      | Error e ->
          incr skipped;
          Obs.Log.err ~tag:"trace" "%s: skipped: %s" file e
      | Ok doc -> (
          match R.mem_list "traceEvents" doc with
          | None ->
              incr skipped;
              Obs.Log.err ~tag:"trace" "%s: skipped: no traceEvents array"
                file
          | Some evs ->
              incr merged;
              let pid = !merged in
              let rename label =
                if Hashtbl.mem seen_labels label then
                  Printf.sprintf "%s #%d" label pid
                else begin
                  Hashtbl.add seen_labels label ();
                  label
                end
              in
              let remap ev =
                match ev with
                | R.Obj fields ->
                    let is_process_name =
                      R.mem_string "ph" ev = Some "M"
                      && R.mem_string "name" ev = Some "process_name"
                    in
                    R.Obj
                      (List.map
                         (fun (k, v) ->
                           match (k, v) with
                           | "pid", _ -> (k, R.Num (float_of_int pid))
                           | "args", R.Obj afields when is_process_name ->
                               ( k,
                                 R.Obj
                                   (List.map
                                      (fun (ak, av) ->
                                        match (ak, av) with
                                        | "name", R.Str label ->
                                            (ak, R.Str (rename label))
                                        | _ -> (ak, av))
                                      afields) )
                           | _ -> (k, v))
                         fields)
                | other -> other
              in
              Obs.Log.info ~tag:"trace" "%s: %d event(s) as pid %d" file
                (List.length evs) pid;
              chunks := List.map remap evs :: !chunks))
    ins;
  if !merged = 0 then
    fail ~tag:"trace" "no input could be merged; not writing %s" out;
  let events = List.concat (List.rev !chunks) in
  J.to_file out (fun w ->
      J.obj w (fun w ->
          J.field_string w "schema" "efgame-trace/1";
          J.field_string w "displayTimeUnit" "ms";
          J.field w "traceEvents" (fun w ->
              J.arr w (fun w -> List.iter (R.write w) events))));
  Format.printf "merged %d/%d trace(s) -> %s (%d events%s)@." !merged
    (List.length ins) out (List.length events)
    (if !skipped > 0 then Printf.sprintf ", %d inputs skipped" !skipped
     else "");
  exit (if !skipped > 0 then 1 else 0)

(* ---------------------------------------------------- shard subcommands *)

(* Exit codes of the shard group (documented in README "Distributed
   scans"): init/work 0 ok, work 1 if this worker quarantined a shard;
   status 0 all done, 3 work remaining, 1 quarantine-blocked; merge 0
   complete, 1 partial output written, 2 nothing written; audit 0 pass,
   5 mismatch; heal 0 every quarantine cleared, 1 irreducible windows
   remain, 2 heal infrastructure failure; run 0 converged with the
   proven bound stamped, 1 converged partially. 2 is the shared "bad
   manifest / usage" failure, and 130/143 are signal exits as
   everywhere else. *)

let shard_init () dir k max_n shards =
  match Dist.Manifest.create ~k ~max_n ~shards () with
  | exception Invalid_argument msg -> fail "%s" msg
  | m -> (
      (match (Dist.Store.active ()).Dist.Store.mkdir dir with
      | Ok () -> ()
      | Error e -> fail "%s: %s" dir (Dist.Store.error_message e));
      match Dist.Manifest.save m ~dir with
      | Ok () ->
          Format.printf "initialized %s: k=%d, %d pairs (q ≤ %d) in %d shards@."
            dir m.Dist.Manifest.k m.Dist.Manifest.total m.Dist.Manifest.max_n
            (Array.length m.Dist.Manifest.shards);
          exit 0
      | Error msg -> fail "%s" msg)

let write_worker_json ~path ~dir ~wall_s (s : Dist.Worker.summary) =
  let module J = Obs.Jsonw in
  J.to_file path (fun w ->
      J.obj w (fun w ->
          J.field_string w "schema" "efgame-shard-worker/2";
          J.field_string w "dir" dir;
          J.field_float w "wall_s" wall_s;
          J.field_int w "completed" s.completed;
          J.field_int w "claimed" s.claimed;
          J.field_int w "reclaimed" s.reclaimed;
          J.field_int w "abandoned" s.abandoned;
          J.field_int w "requeued" s.requeued;
          J.field_int w "quarantined" s.quarantined;
          J.field_int w "pairs" s.pairs;
          J.field_int w "deduped" s.deduped;
          J.field w "faults" (fun w ->
              if Rt.Fault.enabled () then Rt.Fault.write_json w else J.null w)))

let shard_work () dir ttl jobs budget attempts max_requeues deadline_s
    inject_faults chaos json metrics heartbeat flight =
  (match Dist.Store.setup ?spec:chaos () with
  | Ok () ->
      let st = Dist.Store.active () in
      if st.Dist.Store.label <> "posix" then
        Obs.Log.warn ~tag:"chaos" "hostile store armed: %s" st.Dist.Store.label
  | Error msg -> fail ~tag:"chaos" "%s" msg);
  check_output ~flag:"--json" json;
  check_output ~flag:"--metrics" metrics;
  arm_faults inject_faults;
  Rt.Signal.install ();
  Option.iter arm_metrics metrics;
  (* the worker's tick thread dumps the ring too (cfg.flight below);
     the signal hook and at_exit cover the paths between ticks, so the
     last flight events of a SIGTERMed worker include its final
     checkpoint, written before the exit dump *)
  Option.iter arm_flight flight;
  let deadline = deadline_of deadline_s in
  let cfg =
    {
      (Dist.Worker.default_config ~dir) with
      Dist.Worker.ttl;
      jobs = max 1 jobs;
      budget;
      attempts;
      max_requeues;
      deadline;
      heartbeat;
      flight;
    }
  in
  let t0 = Unix.gettimeofday () in
  match Dist.Worker.run cfg with
  | Error msg -> fail "%s" msg
  | Ok s ->
      let wall_s = Unix.gettimeofday () -. t0 in
      Format.printf
        "worker: %d shard(s) completed (%d claimed, %d reclaimed), %d \
         abandoned, %d requeued, %d quarantined, %d pairs, %.2f s@."
        s.Dist.Worker.completed s.Dist.Worker.claimed s.Dist.Worker.reclaimed
        s.Dist.Worker.abandoned s.Dist.Worker.requeued
        s.Dist.Worker.quarantined s.Dist.Worker.pairs wall_s;
      if s.Dist.Worker.deduped > 0 then
        Format.printf "worker: %d duplicate(s) discarded@."
          s.Dist.Worker.deduped;
      Option.iter (fun path -> write_worker_json ~path ~dir ~wall_s s) json;
      (match Rt.Signal.pending () with
      | Some src ->
          Obs.Log.warn ~tag:"shard" "%s: leases released, exiting"
            (Rt.Signal.name src);
          exit (Rt.Signal.exit_code src)
      | None -> ());
      exit (if s.Dist.Worker.quarantined > 0 then 1 else 0)

let shard_status () dir ttl json =
  check_output ~flag:"--json" json;
  match Dist.Manifest.load ~dir with
  | Error msg -> fail "%s" msg
  | Ok m ->
      let detail s =
        let id = s.Dist.Manifest.id in
        match Dist.Manifest.state ~dir ~ttl s with
        | Dist.Manifest.Quarantined ->
            ( "quarantined",
              match Dist.Manifest.quarantine_reason dir id with
              | Some reason -> ": " ^ reason
              | None -> "" )
        | Dist.Manifest.Done -> (
            ( "done",
              match Dist.Record.read ~dir id with
              | Ok r -> (
                  Printf.sprintf " (%d entries%s)" r.Dist.Record.entries
                    (match r.Dist.Record.outcome with
                    | Dist.Record.Exhausted -> ""
                    | Dist.Record.Found (p, q) ->
                        Printf.sprintf ", found (%d,%d)" p q))
              | Error _ -> "" ))
        | Dist.Manifest.Leased -> (
            ( "leased",
              match Dist.Lease.holder (Dist.Manifest.lease_path dir id) with
              | Some (owner, age) ->
                  (* a heartbeat past half the TTL deserves attention
                     before the reclaim actually fires *)
                  Printf.sprintf " by %s (heartbeat %.1fs ago%s)" owner age
                    (if age > ttl /. 2. then "; AGING, past half the TTL"
                     else "")
              | None -> "" ))
        | Dist.Manifest.Pending -> (
            ( "pending",
              match Dist.Manifest.lease_age dir id with
              | Some age -> Printf.sprintf " (stale lease, %.1fs)" age
              | None -> "" ))
      in
      Array.iter
        (fun s ->
          let state, extra = detail s in
          Format.printf "shard %04d [%6d, %6d) %-11s%s@." s.Dist.Manifest.id
            s.Dist.Manifest.lo s.Dist.Manifest.hi state extra)
        m.Dist.Manifest.shards;
      let c = Dist.Manifest.counts ~dir ~ttl m in
      (* liveness signals the counts can't show: how long since the
         fleet last finished a shard, and how many live leases are
         already past half the TTL (renewals have stopped; the reclaim
         countdown is running) *)
      let st = Dist.Store.active () in
      let newest_done =
        Array.fold_left
          (fun acc s ->
            match st.Dist.Store.mtime (Dist.Manifest.done_path dir s.Dist.Manifest.id) with
            | Ok m -> ( match acc with Some a when a >= m -> acc | _ -> Some m)
            | Error _ -> acc)
          None m.Dist.Manifest.shards
      in
      let newest_done_age =
        Option.map (fun m -> Float.max 0. (st.Dist.Store.now () -. m)) newest_done
      in
      let aging =
        Array.fold_left
          (fun acc s ->
            match
              Dist.Lease.holder
                (Dist.Manifest.lease_path dir s.Dist.Manifest.id)
            with
            | Some (_, age) when age > ttl /. 2. && age <= ttl -> acc + 1
            | _ -> acc)
          0 m.Dist.Manifest.shards
      in
      Format.printf
        "%d shard(s): %d done, %d leased (%d aging), %d pending (%d stale), \
         %d quarantined@."
        (Array.length m.Dist.Manifest.shards)
        c.Dist.Manifest.done_ c.Dist.Manifest.leased aging
        c.Dist.Manifest.pending c.Dist.Manifest.stale
        c.Dist.Manifest.quarantined;
      (match newest_done_age with
      | Some age -> Format.printf "newest completion record: %.1fs ago@." age
      | None -> ());
      (match json with
      | Some path ->
          let module J = Obs.Jsonw in
          J.to_file path (fun w ->
              J.obj w (fun w ->
                  J.field_string w "schema" "efgame-shard-status/2";
                  J.field_int w "k" m.Dist.Manifest.k;
                  J.field_int w "max_n" m.Dist.Manifest.max_n;
                  J.field_int w "total" m.Dist.Manifest.total;
                  J.field_int w "shards" (Array.length m.Dist.Manifest.shards);
                  J.field_int w "done" c.Dist.Manifest.done_;
                  J.field_int w "leased" c.Dist.Manifest.leased;
                  J.field_int w "aging_leases" aging;
                  J.field_int w "pending" c.Dist.Manifest.pending;
                  J.field_int w "stale" c.Dist.Manifest.stale;
                  J.field_int w "quarantined" c.Dist.Manifest.quarantined;
                  match newest_done_age with
                  | Some age ->
                      J.field_float ~prec:1 w "newest_done_age_s" age
                  | None -> J.field_null w "newest_done_age_s"))
      | None -> ());
      if c.Dist.Manifest.quarantined > 0 then exit 1
      else if c.Dist.Manifest.pending > 0 || c.Dist.Manifest.leased > 0 then
        exit 3
      else exit 0

(* The live fleet view: merge every worker's heartbeat snapshot with
   the manifest-derived shard states. Corrupt, truncated, or missing
   heartbeats are skipped with a warning (Heartbeat.list); stale ones
   are shown but excluded from throughput and the ETA. Exit codes
   mirror [shard status]: 0 all done, 3 work remaining, 1 quarantine-
   blocked. *)
let shard_top () dir ttl stale_after watch json =
  match Dist.Manifest.load ~dir with
  | Error msg -> fail "%s" msg
  | Ok m ->
      Rt.Signal.install ();
      let once () =
        let observed, warnings = Dist.Heartbeat.list ~dir in
        let states =
          Array.to_list
            (Array.map
               (fun s -> (s, Dist.Manifest.state ~dir ~ttl s))
               m.Dist.Manifest.shards)
        in
        let st = Dist.Store.active () in
        let skew_margin =
          Float.max Dist.Top.default_skew_margin (Dist.Store.stale_margin st)
        in
        let t =
          Dist.Top.aggregate ~now:(st.Dist.Store.now ()) ~stale_after
            ~skew_margin ~states observed
        in
        (match json with
        | Some path ->
            Obs.Telemetry.write_atomic ~path (fun w ->
                Dist.Top.write_json ~warnings t w)
        | None -> ());
        print_string (Dist.Top.render ~warnings t);
        flush stdout;
        t
      in
      let code (t : Dist.Top.t) =
        if t.Dist.Top.shards_quarantined > 0 then 1
        else if t.Dist.Top.shards_pending + t.Dist.Top.shards_leased > 0 then 3
        else 0
      in
      (match watch with
      | None -> exit (code (once ()))
      | Some secs ->
          let rec loop () =
            if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
            let t = once () in
            match Rt.Signal.pending () with
            | Some src ->
                Obs.Log.warn ~tag:"shard" "%s: watch stopped"
                  (Rt.Signal.name src);
                exit (Rt.Signal.exit_code src)
            | None ->
                if t.Dist.Top.shards_pending + t.Dist.Top.shards_leased = 0
                then exit (code t)
                else begin
                  (try Unix.sleepf (Float.max 0.1 secs)
                   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                  loop ()
                end
          in
          loop ())

(* what a merge established, shared by [shard merge] and [shard run] *)
let print_merge_verdict (t : Dist.Merge.t) =
  Option.iter
    (fun (p, q) -> Format.printf "minimal pair across shards: a^%d ≡ a^%d@." p q)
    t.found;
  Option.iter
    (fun (k, n) ->
      Format.printf "proven bound stamped: no ≡_%d pair with q ≤ %d@." k n)
    t.bound

let shard_merge () dir out threshold =
  match Dist.Merge.merge ~salvage_threshold:threshold ~dir ~out () with
  | Error msg -> fail "%s" msg
  | Ok t ->
      List.iter
        (fun (id, st) ->
          match st with
          | Dist.Merge.Merged r ->
              Format.printf "shard %04d: merged (%d entries)@." id
                r.Efgame.Persist.entries
          | Dist.Merge.Salvaged (r, certified) ->
              Format.printf
                "shard %04d: salvaged %d of %d certified entries@." id
                r.Efgame.Persist.entries certified
          | Dist.Merge.Quarantined reason ->
              Format.printf "shard %04d: quarantined: %s@." id reason
          | Dist.Merge.Missing -> Format.printf "shard %04d: missing@." id)
        t.Dist.Merge.per_shard;
      Format.printf
        "merged %d shard(s) (%d salvaged) -> %s: %d entries, %d \
         quarantined, %d missing@."
        t.Dist.Merge.merged t.Dist.Merge.salvaged out t.Dist.Merge.entries
        t.Dist.Merge.quarantined t.Dist.Merge.missing;
      print_merge_verdict t;
      exit (if Dist.Merge.complete t then 0 else 1)

let shard_audit () dir table sample seed budget salvage =
  match Dist.Audit.audit ~seed ?budget ~sample ~salvage ~dir ~table () with
  | Error msg -> fail "%s" msg
  | Ok a ->
      List.iter
        (fun { Dist.Audit.p; q; table = t; fresh } ->
          Format.printf
            "MISMATCH (%d,%d): table says %s, fresh solve says %a@." p q
            (if t then "equivalent" else "inequivalent")
            Efgame.Game.pp_verdict fresh)
        a.Dist.Audit.mismatches;
      Format.printf
        "audit: %d sampled, %d checked, %d absent, %d unknown, %d \
         mismatch(es)@."
        a.Dist.Audit.sample a.Dist.Audit.checked a.Dist.Audit.absent
        a.Dist.Audit.unknown
        (List.length a.Dist.Audit.mismatches);
      exit (if Dist.Audit.passed a then 0 else 5)

(* --------------------------------------------------------- shard heal *)

let shard_heal () dir budget jobs deadline_s json =
  check_output ~flag:"--json" json;
  Rt.Signal.install ();
  let deadline = deadline_of deadline_s in
  let cfg =
    {
      (Dist.Heal.default_config ~dir) with
      Dist.Heal.budget;
      jobs = max 1 jobs;
      deadline;
    }
  in
  match Dist.Heal.heal_all ~cfg with
  | Error msg -> fail "%s" msg
  | Ok f ->
      List.iter
        (fun (id, r) ->
          match r with
          | `Healed o ->
              Format.printf
                "shard %04d: healed (%d entries re-certified in %d \
                 window(s))@."
                id o.Dist.Heal.entries o.Dist.Heal.splits
          | `Poisoned leaves ->
              Format.printf
                "shard %04d: still poisoned, %d irreducible sub-window(s)@."
                id (List.length leaves)
          | `Error msg -> Format.printf "shard %04d: heal failed: %s@." id msg)
        f.Dist.Heal.per_shard;
      Format.printf "heal: %d healed, %d still poisoned, %d failed@."
        f.Dist.Heal.healed f.Dist.Heal.still_poisoned f.Dist.Heal.failed;
      (match json with
      | Some path ->
          let module J = Obs.Jsonw in
          J.to_file path (fun w ->
              J.obj w (fun w ->
                  J.field_string w "schema" "efgame-shard-heal/1";
                  J.field_string w "dir" dir;
                  J.field_int w "healed" f.Dist.Heal.healed;
                  J.field_int w "still_poisoned" f.Dist.Heal.still_poisoned;
                  J.field_int w "failed" f.Dist.Heal.failed;
                  J.field w "per_shard" (fun w ->
                      J.arr w (fun w ->
                          List.iter
                            (fun (id, r) ->
                              J.obj w (fun w ->
                                  J.field_int w "shard" id;
                                  match r with
                                  | `Healed o ->
                                      J.field_string w "result" "healed";
                                      J.field_int w "entries"
                                        o.Dist.Heal.entries;
                                      J.field_int w "splits" o.Dist.Heal.splits
                                  | `Poisoned leaves ->
                                      J.field_string w "result" "poisoned";
                                      J.field_int w "irreducible"
                                        (List.length leaves)
                                  | `Error msg ->
                                      J.field_string w "result" "error";
                                      J.field_string w "detail" msg))
                            f.Dist.Heal.per_shard))))
      | None -> ());
      exit
        (if f.Dist.Heal.failed > 0 then 2
         else if f.Dist.Heal.still_poisoned > 0 then 1
         else 0)

(* ---------------------------------------------------------- shard run *)

(* The convergence controller itself is {!Dist.Run.converge}; the CLI
   owns only how a worker process is started (argv plus a log file)
   and the report. *)
let shard_run () dir out workers ttl rounds budget jobs phase_deadline_s json =
  Rt.Signal.install ();
  let fail fmt = fail ~tag:"run" fmt in
  if workers < 1 then fail "--workers must be at least 1";
  check_output ~flag:"--json" json;
  match Dist.Manifest.load ~dir with
  | Error msg -> fail "%s" msg
  | Ok m ->
      let logs = Filename.concat dir "run-logs" in
      (match (Dist.Store.active ()).Dist.Store.mkdir logs with
      | Ok () -> ()
      | Error e -> fail "%s: %s" logs (Dist.Store.error_message e));
      let exe = Sys.executable_name in
      let child = ref 0 in
      let spawn () =
        let i = !child in
        incr child;
        let log = Filename.concat logs (Printf.sprintf "worker-%02d.log" i) in
        let fd =
          Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        let argv =
          Array.of_list
            ([ exe; "shard"; "work"; dir; "--ttl"; Printf.sprintf "%g" ttl;
               "--heartbeat-every"; "0.5"; "-q" ]
            @ (match budget with
              | Some b -> [ "--budget"; string_of_int b ]
              | None -> [])
            @ if jobs > 1 then [ "--jobs"; string_of_int jobs ] else [])
        in
        let pid = Unix.create_process exe argv Unix.stdin fd fd in
        Unix.close fd;
        pid
      in
      Obs.Log.info ~tag:"run"
        "converging %s: %d worker(s), ttl %gs, up to %d round(s)" dir workers
        ttl rounds;
      let t0 = Unix.gettimeofday () in
      let cv =
        Dist.Run.converge ?phase_deadline_s ?budget ~jobs ~dir ~ttl ~workers
          ~rounds ~out ~spawn m
      in
      let wall_s = Unix.gettimeofday () -. t0 in
      let tail = Dist.Run.drain_tail_s ~dir m in
      List.iter
        (fun (phase, round, wall) ->
          Format.printf "phase %s (round %d): %.1fs@." phase round wall)
        cv.Dist.Run.phases;
      Format.printf
        "run: %d round(s), %d spawn(s) (%d respawns), %d healed, %d \
         poisoned, %.1fs@."
        cv.Dist.Run.rounds cv.Dist.Run.spawned cv.Dist.Run.respawns
        cv.Dist.Run.healed cv.Dist.Run.poisoned wall_s;
      (match tail with
      | Some t -> Format.printf "drain tail: %.1fs past the median window@." t
      | None -> ());
      let t_merge, code =
        match cv.Dist.Run.merge with
        | Error msg ->
            Obs.Log.err ~tag:"run" "merge: %s" msg;
            (None, 2)
        | Ok t ->
            print_merge_verdict t;
            Format.printf "merged %d shard(s) -> %s: %d entries@."
              t.Dist.Merge.merged out t.Dist.Merge.entries;
            ( Some t,
              if
                cv.Dist.Run.converged
                && Dist.Merge.complete t
                && t.Dist.Merge.bound <> None
              then 0
              else 1 )
      in
      (match json with
      | Some path ->
          let module J = Obs.Jsonw in
          J.to_file path (fun w ->
              J.obj w (fun w ->
                  J.field_string w "schema" "efgame-shard-run/2";
                  J.field_string w "dir" dir;
                  J.field_string w "out" out;
                  J.field_int w "workers" workers;
                  J.field_int w "rounds" cv.Dist.Run.rounds;
                  J.field_int w "spawned" cv.Dist.Run.spawned;
                  J.field_int w "respawns" cv.Dist.Run.respawns;
                  J.field_int w "healed" cv.Dist.Run.healed;
                  J.field_int w "heal_failures" cv.Dist.Run.heal_failures;
                  J.field_int w "poisoned" cv.Dist.Run.poisoned;
                  J.field_bool w "converged" cv.Dist.Run.converged;
                  J.field_float ~prec:2 w "wall_s" wall_s;
                  (match tail with
                  | Some t -> J.field_float ~prec:2 w "drain_tail_s" t
                  | None -> J.field_null w "drain_tail_s");
                  J.field w "phases" (fun w ->
                      J.arr w (fun w ->
                          List.iter
                            (fun (phase, round, wall) ->
                              J.obj w (fun w ->
                                  J.field_string w "phase" phase;
                                  J.field_int w "round" round;
                                  J.field_float ~prec:2 w "wall_s" wall))
                            cv.Dist.Run.phases));
                  match t_merge with
                  | None -> J.field_null w "merge"
                  | Some t ->
                      J.field w "merge" (fun w ->
                          J.obj w (fun w ->
                              J.field_int w "merged" t.Dist.Merge.merged;
                              J.field_int w "salvaged" t.Dist.Merge.salvaged;
                              J.field_int w "quarantined"
                                t.Dist.Merge.quarantined;
                              J.field_int w "missing" t.Dist.Merge.missing;
                              J.field_int w "entries" t.Dist.Merge.entries;
                              match t.Dist.Merge.bound with
                              | Some (k, n) ->
                                  J.field w "bound" (fun w ->
                                      J.obj w (fun w ->
                                          J.field_int w "k" k;
                                          J.field_int w "max_n" n))
                              | None -> J.field_null w "bound"))))
      | None -> ());
      (match Rt.Signal.pending () with
      | Some src -> exit (Rt.Signal.exit_code src)
      | None -> ());
      exit code


(* ------------------------------------------------------------ cmdline *)

let words_arg = Arg.(value & pos_all string [] & info [] ~docv:"WORD" ~doc:"The two words.")
let rounds_arg = Arg.(value & opt int 1 & info [ "k"; "rounds" ] ~docv:"K" ~doc:"Number of rounds.")
let explain_arg = Arg.(value & flag & info [ "explain" ] ~doc:"Show a winning Spoiler line when inequivalent.")
let budget_arg = Arg.(value & opt int 50_000_000 & info [ "budget" ] ~docv:"N" ~doc:"Search node budget.")
let scan_arg = Arg.(value & opt (some int) None & info [ "scan" ] ~docv:"K" ~doc:"Search the minimal unary ≡_K pair.")
let classes_arg = Arg.(value & opt (some int) None & info [ "classes" ] ~docv:"K" ~doc:"Compute unary ≡_K classes.")

let frontier_arg =
  Arg.(value & opt (some int) None & info [ "frontier" ] ~docv:"N"
       ~doc:"Exhaustive all-pairs ≡₃ frontier scan up to $(docv) (the E2 \
             experiment), on the work-stealing scheduler with the \
             transposition-table engine. Combine with --table/--resume to \
             checkpoint and continue, --json for a machine-readable record, \
             --jobs to fan pairs out over worker domains.")

let max_arg = Arg.(value & opt int 14 & info [ "max" ] ~docv:"N" ~doc:"Bound for --scan/--classes.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"J"
       ~doc:"Fan the pair checks of --scan, --frontier and --classes (or a \
             shard's pairs) out over J worker domains sharing one \
             transposition table. A word pair is decided on one domain: \
             J > 1 with two words is a usage error.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
       ~doc:"Print transposition-table statistics (entries, hits, misses, \
             stores) after solving, and scan statistics (pairs, nodes, \
             chunks, wall time) after a scan.")

let table_arg =
  Arg.(value & opt (some string) None & info [ "table" ] ~docv:"FILE"
       ~doc:"Persist the transposition table to $(docv): periodic \
             checkpoints during a scan (see --checkpoint) plus a final \
             save. Only exact verdicts are written, so reloaded tables \
             are sound regardless of budget.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
       ~doc:"Load the --table file before scanning (if it exists; its .bak \
             sibling is tried when the primary is missing or damaged), \
             making the scan incremental: already-proved pairs are answered \
             from the table. Without --resume an existing file is \
             overwritten.")

let salvage_arg =
  Arg.(value & flag & info [ "salvage" ]
       ~doc:"When resuming from (or merging) a damaged snapshot, recover \
             the valid entries instead of rejecting the whole file. Sound: \
             a salvaged load only drops entries, never invents them, and \
             dropped verdicts are simply re-derived by the scan.")

let checkpoint_arg =
  Arg.(value & opt float 60. & info [ "checkpoint" ] ~docv:"S"
       ~doc:"Seconds between table checkpoints during a scan (0 disables \
             periodic checkpoints; the final save on drain, signal or \
             deadline always happens). Checkpoint writes are atomic \
             (tmp + fsync + rename, previous snapshot kept as .bak) and \
             retried with capped exponential backoff on I/O failure.")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S"
       ~doc:"Stop the scan after $(docv) seconds of wall time: workers \
             wind down at item granularity, a final checkpoint is taken, \
             and the process exits 0 with resumable state — the in-process \
             alternative to being killed by an external timeout.")

let faults_arg =
  Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"SEED:RATE"
       ~doc:"Arm deterministic fault injection: every instrumented site \
             (persist I/O, scheduler claim/item paths) fails with \
             probability RATE, seeded by SEED. The EFGAME_FAULTS \
             environment variable is the equivalent ambient switch. \
             Robustness testing only.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
       ~doc:"Write a machine-readable record of the scan (outcome, wall \
             time, pairs, nodes, table hit rate, fault-injection stats) to \
             $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Record a Chrome trace-event file to $(docv): one track per \
             worker domain, with scheduler chunks, pair decisions, and \
             table checkpoints as nested spans. Open it at \
             ui.perfetto.dev. Off by default, at zero cost.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Enable the sharded Obs counters (nodes by rounds-remaining, \
             cache hits/misses/stores by depth, scheduler chunk sizes and \
             per-worker share, checkpoint bytes) and dump the merged \
             snapshot to $(docv) on exit.")

let telemetry_arg =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
       ~doc:"Publish a rolling live-telemetry snapshot to $(docv) while the \
             process works: pid, uptime, environment identity, progress \
             counters, and the merged metrics (with latency percentiles) — \
             rewritten atomically (tmp+rename) every tick by a background \
             thread, so a concurrent reader always sees a complete \
             document and the solve hot path never blocks on telemetry \
             I/O. Implies the metrics counters.")

let telemetry_interval_arg =
  Arg.(value & opt float 2. & info [ "telemetry-interval" ] ~docv:"S"
       ~doc:"Seconds between telemetry snapshots (default 2).")

let flight_arg =
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE"
       ~doc:"Arm the flight recorder: a fixed-size lock-free ring of recent \
             lifecycle events (retries, fault injections, checkpoints, \
             signals), dumped to $(docv) on signals, at exit, and on every \
             telemetry tick — a killed process leaves a post-mortem no \
             older than one tick.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ]
       ~doc:"Suppress progress and diagnostic lines on stderr (errors are \
             still printed). Results on stdout are unaffected.")

let verbose_arg =
  Arg.(value & flag_all & info [ "v"; "verbose" ]
       ~doc:"Show debug-level diagnostics on stderr.")

(* -q/-v for every command: evaluating the term sets up the log *)
let common =
  let setup quiet verbose =
    Obs.Log.setup ~quiet ~verbosity:(List.length verbose) ()
  in
  Term.(const setup $ quiet_arg $ verbose_arg)

let main_term =
  Term.(const run $ common $ words_arg $ rounds_arg $ explain_arg $ budget_arg $ scan_arg
        $ classes_arg $ frontier_arg $ max_arg $ jobs_arg $ stats_arg
        $ table_arg $ resume_arg $ salvage_arg $ checkpoint_arg $ deadline_arg
        $ faults_arg $ json_arg $ trace_arg $ metrics_arg $ telemetry_arg
        $ telemetry_interval_arg $ flight_arg)

let table_info_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"The snapshot to inspect.")
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Validate a table snapshot without loading it: format version, \
             checksums, per-entry framing, and how many entries a salvage \
             would recover. Exits 0 (pristine), 1 (damaged), 2 (unreadable).")
    Term.(const table_info $ file)

let table_merge_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT"
         ~doc:"The merged snapshot to write.")
  in
  let ins =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"IN"
         ~doc:"Snapshots to merge.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge table snapshots: load each IN into one table (monotone \
             frontier merge — overlapping entries keep the strongest \
             verdicts) and write the union to OUT in the current format. \
             Also serves as a v1-to-v2 converter.")
    Term.(const table_merge $ common $ out $ ins $ salvage_arg)

(* A canonical text rendering of a table's exact-verdict frontiers:
   one line per entry, sorted, with the key escaped — two tables are
   semantically equal iff their dumps are byte-equal. *)
let table_dump () file salvage =
  let cache = Efgame.Cache.create () in
  match Efgame.Persist.load ~salvage cache file with
  | Error e ->
      Format.eprintf "%s: %a@." file Efgame.Persist.pp_error e;
      exit 2
  | Ok _ ->
      Efgame.Cache.fold cache ~init:[] ~f:(fun acc key ~win ~lose ->
          Printf.sprintf "%s\twin<=%d\tlose>=%s" (String.escaped key) win
            (if lose = max_int then "inf" else string_of_int lose)
          :: acc)
      |> List.sort String.compare
      |> List.iter print_endline;
      exit 0

let table_dump_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"The snapshot to dump.")
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Print a table's entries as sorted, escaped text — one line per              position with its exact-verdict frontiers. Two snapshots hold              the same verdicts iff their dumps are byte-identical.")
    Term.(const table_dump $ common $ file $ salvage_arg)

let table_cmd =
  Cmd.group
    (Cmd.info "table" ~doc:"Inspect and maintain persisted table snapshots.")
    [ table_info_cmd; table_merge_cmd; table_dump_cmd ]

(* ------------------------------------------------- trace command group *)

let trace_merge_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT"
         ~doc:"The merged trace to write.")
  in
  let ins =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"IN"
         ~doc:"Per-process trace-event files to merge.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge per-process Chrome trace files (--trace output) into one \
             fleet timeline openable at ui.perfetto.dev: each input's \
             events are re-stamped with a distinct pid, so the merged view \
             shows one named process per worker with one track per domain \
             under it. A corrupt input is skipped, not fatal. Exits 0 when \
             every input merged, 1 when the output covers a strict subset, \
             2 when nothing merged.")
    Term.(const trace_merge $ common $ out $ ins)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Work with recorded trace-event files (see --trace).")
    [ trace_merge_cmd ]

(* ------------------------------------------------- shard command group *)

let shard_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
       ~doc:"The shared scan directory (manifest plus per-shard files).")

let ttl_arg =
  Arg.(value & opt float 30. & info [ "ttl" ] ~docv:"S"
       ~doc:"Lease staleness threshold in seconds: a lease whose heartbeat \
             is older than $(docv) is presumed dead and reclaimable. Every \
             worker on a directory must use the same TTL.")

let chaos_arg =
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"PROFILE[:SEED]"
       ~doc:"Run this worker's shard-directory I/O through a hostile \
             deterministic store wrapper: coarse mtimes, a skewed process \
             clock, delayed visibility of other workers' files, torn \
             exclusive creates, and transient EIO/ENOSPC/EINTR faults. \
             Profiles: $(b,nfs-coarse), $(b,flaky-io), $(b,skewed-clock), \
             $(b,none); SEED defaults to 0. The EFGAME_CHAOS environment \
             variable is the equivalent ambient switch. Robustness testing \
             only.")

let shard_init_cmd =
  let k =
    Arg.(value & opt int 3 & info [ "k"; "rounds" ] ~docv:"K" ~doc:"Rounds.")
  in
  let max_n =
    Arg.(value & opt int 384 & info [ "max" ] ~docv:"N"
         ~doc:"Scan all pairs (p, q) with q ≤ $(docv).")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~docv:"S"
         ~doc:"Number of triangle windows to cut, near-equal in cost \
               with every pair (p, q) priced at (q+1)^2.")
  in
  Cmd.v
    (Cmd.info "init"
       ~doc:"Initialize a scan directory: cut the (p, q) triangle into \
             shard windows of near-equal (q+1)^2 cost and write the \
             immutable, checksummed manifest. Refuses to re-initialize an \
             existing directory.")
    Term.(const shard_init $ common $ shard_dir_arg $ k $ max_n $ shards)

let shard_work_cmd =
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Per-pair node budget (solver default when omitted). A shard \
               whose scan exhausts the budget is quarantined, not retried: \
               budget exhaustion is deterministic.")
  in
  let attempts =
    Arg.(value & opt int 3 & info [ "attempts" ] ~docv:"N"
         ~doc:"In-lease I/O attempts per shard (capped exponential backoff, \
               heartbeat renewed before each retry).")
  in
  let max_requeues =
    Arg.(value & opt int 2 & info [ "max-requeues" ] ~docv:"N"
         ~doc:"Cross-worker re-enqueues before a failing shard is \
               quarantined.")
  in
  let heartbeat =
    Arg.(value & opt float 2. & info [ "heartbeat-every" ] ~docv:"S"
         ~doc:"Seconds between telemetry heartbeat snapshots (the .hb file \
               in DIR that $(b,shard top) aggregates). 0 disables the \
               publisher entirely. Distinct from --ttl, which governs the \
               per-shard lease files.")
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:"Claim and scan shards until every shard in DIR is done or \
             quarantined: claim via atomic lease file, scan the window, \
             persist and validate the shard table, write the completion \
             record, release. Run any number of these concurrently — \
             including on different machines sharing DIR. While working, \
             each worker advertises itself live via a heartbeat snapshot \
             in DIR (see $(b,shard top)). Exits 0, or 1 if this worker \
             quarantined a shard.")
    Term.(const shard_work $ common $ shard_dir_arg $ ttl_arg $ jobs_arg $ budget
          $ attempts $ max_requeues $ deadline_arg $ faults_arg $ chaos_arg
          $ json_arg $ metrics_arg $ heartbeat $ flight_arg)

let shard_status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:"Report per-shard state (pending / leased / done / quarantined, \
             with lease holders and quarantine reasons) derived from the \
             directory. Exits 0 when every shard is done, 3 while work \
             remains, 1 when quarantined shards block completion.")
    Term.(const shard_status $ common $ shard_dir_arg $ ttl_arg $ json_arg)

let shard_top_cmd =
  let stale =
    Arg.(value & opt float Dist.Top.default_stale_after
         & info [ "stale-after" ] ~docv:"S"
             ~doc:"Treat a heartbeat older than $(docv) seconds as stale: \
                   the worker still shows (its completed work is real) but \
                   its rate is excluded from fleet throughput and the ETA.")
  in
  let watch =
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"S"
         ~doc:"Refresh every $(docv) seconds until the scan completes or a \
               signal stops the watch.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live fleet view: merge every worker's heartbeat snapshot in \
             DIR with the manifest's shard states into fleet throughput \
             (pairs/s), per-worker share, cache hit rates, checkpoint ages, \
             and an ETA from the windows still outstanding. Corrupt or \
             truncated heartbeats are skipped with a warning; stale ones \
             are flagged. Exit codes mirror $(b,shard status): 0 all done, \
             3 work remaining, 1 quarantine-blocked.")
    Term.(const shard_top $ common $ shard_dir_arg $ ttl_arg $ stale $ watch
          $ json_arg)

let shard_merge_cmd =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT"
         ~doc:"The merged frontier table to write.")
  in
  let threshold =
    Arg.(value & opt float 0.5 & info [ "threshold" ] ~docv:"F"
         ~doc:"Minimum salvageable fraction of a damaged shard's certified \
               entries; anything below is quarantined instead of merged.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge every certified shard table of DIR into OUT, \
             re-verifying each on the way in (record checksum against the \
             table file, then strict load). Damaged shards salvage or \
             quarantine; one corrupt shard never aborts the merge. The \
             proven bound is stamped on OUT only when every shard merged \
             strictly clean and exhausted its window. Exits 0 when \
             complete, 1 when the output is partial, 2 when nothing could \
             be written.")
    Term.(const shard_merge $ common $ shard_dir_arg $ out $ threshold)

let shard_audit_cmd =
  let table =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TABLE"
         ~doc:"The merged table to audit.")
  in
  let sample =
    Arg.(value & opt int 64 & info [ "sample" ] ~docv:"N"
         ~doc:"Number of pairs to re-solve.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
         ~doc:"SplitMix64 seed for the sample — reproducible, so two \
               auditors with one seed check the same pairs.")
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Per-pair node budget for the re-solves.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Spot-audit TABLE against the manifest in DIR: re-solve a \
             seeded deterministic sample of pairs from scratch and compare \
             verdicts. Catches bad computation that checksums cannot — a \
             wrong entry was wrong at birth. Exits 0 on a clean audit, 5 \
             on any mismatch.")
    Term.(const shard_audit $ common $ shard_dir_arg $ table $ sample $ seed
          $ budget $ salvage_arg)

let shard_heal_cmd =
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Base per-pair node budget for the re-solves, doubled at \
               every split level (solver default when omitted).")
  in
  Cmd.v
    (Cmd.info "heal"
       ~doc:"Automatic quarantine repair: re-solve every quarantined \
             shard's window from scratch with escalated budgets, clearing \
             the quarantine and re-certifying the table on success; a \
             window that still fails is split and its halves retried (one \
             budget doubling per level) until only irreducible single-pair \
             sub-windows remain, and the quarantine reason is narrowed to \
             exactly them. Idempotent and crash-safe: the quarantine is \
             lifted only after the fresh record lands. Exits 0 when every \
             quarantine cleared, 1 when irreducible windows remain, 2 on \
             heal-infrastructure failure.")
    Term.(const shard_heal $ common $ shard_dir_arg $ budget $ jobs_arg
          $ deadline_arg $ json_arg)

let shard_run_cmd =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT"
         ~doc:"The merged frontier table to write.")
  in
  let workers =
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker processes to keep alive during each work phase \
               (dead ones are respawned).")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N"
         ~doc:"Maximum work, heal, merge rounds before giving up; the \
               controller also stops early after a round that makes no \
               progress.")
  in
  let budget =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
         ~doc:"Per-pair node budget for the workers, and the heal phase's \
               base budget (solver default when omitted).")
  in
  let phase_deadline =
    Arg.(value & opt (some float) None & info [ "phase-deadline" ] ~docv:"S"
         ~doc:"Wall-clock budget for each work and heal phase: an expired \
               phase winds down cleanly and the controller moves on \
               (unbounded when omitted).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"The one-command convergence controller: drive an initialized \
             DIR from claim to stamped proven bound with zero manual \
             steps. Each round is a work phase — an elastic fleet of \
             workers, respawned on death, until nothing is pending or \
             leased — then a heal phase over whatever got quarantined, \
             then a merge of every certified shard into OUT; a shard \
             the merge quarantines is healed next round. \
             Exits 0 when the fleet converged and the proven bound was \
             stamped, 1 on partial convergence (irreducible poison or an \
             incomplete merge), 2 on usage or infrastructure failure.")
    Term.(const shard_run $ common $ shard_dir_arg $ out $ workers $ ttl_arg
          $ rounds $ budget $ jobs_arg $ phase_deadline $ json_arg)

let shard_cmd =
  Cmd.group
    (Cmd.info "shard"
       ~doc:"Coordinator-free distributed frontier scans over a shared \
             directory: lease-based shard claims, crash-tolerant \
             completion records, quarantine, heal, merge, audit, and the \
             self-healing run controller (exercised under chaos by the \
             shard torture test).")
    [ shard_init_cmd; shard_work_cmd; shard_status_cmd; shard_top_cmd;
      shard_merge_cmd; shard_audit_cmd; shard_heal_cmd; shard_run_cmd ]

let info =
  Cmd.info "efgame_cli"
    ~doc:"Decide w ≡_k v with the exhaustive EF-game solver"

(* [Cmd.group ~default] routes the first positional argument to a
   subcommand, which would steal the two-word game mode ([efgame_cli
   aaaa aaa]); dispatch on the literal "table"/"shard"/"trace" tokens
   instead, so every other argv shape reaches the main term's
   positionals untouched. *)
let () =
  let cmd =
    if
      Array.length Sys.argv > 1
      && (Sys.argv.(1) = "table" || Sys.argv.(1) = "shard"
         || Sys.argv.(1) = "trace")
    then Cmd.group ~default:main_term info [ table_cmd; trace_cmd; shard_cmd ]
    else Cmd.v info main_term
  in
  exit (Cmd.eval cmd)
