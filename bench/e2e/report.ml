(* Metrics from measured outcomes, the efgame-e2e/1 report, and the
   two readers of reports: [--check] (the smoke test's assertions) and
   [--compare] (two sets of runs against BENCHMARK.json's bounds). *)

(* What one workload process sends back to the parent e2e.exe. *)
type outcome = {
  setup_s : float list;  (** every set-up of the run *)
  ops : int;
  failed : int;
  mismatches : int;
  notes : string list;
  lat_ms : float array;  (** per operation; oracle checks excluded *)
  cpu_ms : float array;
      (** user+sys per operation, reaped children (shard workers) included *)
  heap_words : int;  (** Gc top_heap_words, max over forked workers too *)
  pass_ends : int list;  (** op counts at pass ends, ascending; [] when not in passes *)
  loop_s : float;
  unmeasurable : string option;
  trace : Span.snapshot option;
}

type value = { v : float option; unit : string; note : string option }

type e2e = { name : string; unit : string }

let e2e =
  [
    { name = "setup_s"; unit = "s" };
    { name = "ops_per_s"; unit = "ops/s" };
    { name = "latency_p50_ms"; unit = "ms" };
    { name = "latency_p90_ms"; unit = "ms" };
    { name = "cpu_ms_per_op"; unit = "ms" };
    { name = "peak_heap_mb"; unit = "MiB" };
    { name = "failed_ratio"; unit = "ratio" };
  ]

let sum a = Array.fold_left ( +. ) 0. a

(* Timings are taken per segment — up to five consecutive stretches of
   the run — and the median segment is reported. The host this
   benchmark was tuned on swings by a quarter on a fixed CPU loop for
   seconds at a time; a burst then costs one segment, not the run. A
   segment holds at least [min_ops] operations (100 for the 90th
   percentile, so ten samples lie beyond it); with fewer than three
   segments' worth the whole run is one segment. Workloads measured in
   whole passes are cut at pass ends only, so every segment has the
   pass's exact mix. *)
let segments (o : outcome) ~min_ops =
  let snap x =
    match o.pass_ends with
    | [] -> x
    | ends -> List.fold_left (fun best e -> if abs (e - x) < abs (best - x) then e else best) o.ops ends
  in
  let rec cut k =
    if k < 3 then [ (0, o.ops) ]
    else
      let ends =
        List.init k (fun i -> if i = k - 1 then o.ops else snap ((i + 1) * o.ops / k))
      in
      let bounds = List.combine (0 :: List.filteri (fun i _ -> i < k - 1) ends) ends in
      if List.for_all (fun (lo, hi) -> hi - lo >= min_ops) bounds then bounds else cut (k - 1)
  in
  List.map
    (fun (lo, hi) -> (Array.sub o.lat_ms lo (hi - lo), Array.sub o.cpu_ms lo (hi - lo)))
    (cut (min 5 (o.ops / min_ops)))

let e2e_values (o : outcome) =
  let null reason = List.map (fun d -> (d.name, { v = None; unit = d.unit; note = Some reason })) e2e in
  match o.unmeasurable with
  | Some reason -> null reason
  | None when o.ops = 0 -> null "no operation completed"
  | None ->
      let per_segment ~min_ops f = Stats.median (List.map f (segments o ~min_ops)) in
      let pct p (lat, _) = fst (Stats.percentile lat p) in
      let beyond =
        List.fold_left
          (fun m (lat, _) -> min m (snd (Stats.percentile lat 0.9)))
          max_int (segments o ~min_ops:100)
      in
      let value name ?note v =
        let d = List.find (fun d -> d.name = name) e2e in
        (name, { v = Some v; unit = d.unit; note })
      in
      [
        value "setup_s" (Stats.median o.setup_s);
        value "ops_per_s"
          (per_segment ~min_ops:20 (fun (lat, _) -> float_of_int (Array.length lat) *. 1e3 /. sum lat));
        value "latency_p50_ms" (per_segment ~min_ops:20 (pct 0.5));
        value "latency_p90_ms" (per_segment ~min_ops:100 (pct 0.9))
          ?note:
            (if beyond < 10 then
               Some (Printf.sprintf "only %d samples beyond the 90th percentile" beyond)
             else None);
        value "cpu_ms_per_op"
          (per_segment ~min_ops:20 (fun (_, cpu) -> sum cpu /. float_of_int (Array.length cpu)));
        value "peak_heap_mb"
          (float_of_int (o.heap_words * (Sys.word_size / 8)) /. 1048576.);
        value "failed_ratio" (float_of_int o.failed /. float_of_int o.ops);
      ]

(* ---- per-layer metrics ------------------------------------------ *)

type view = { snap : Span.snapshot; untraced_op_s : float; traced_op_s : float }

let layer_row v name =
  List.find_opt (fun (n, _, _, _) -> n = name) v.snap.Span.layers

let calls v name = match layer_row v name with Some (_, c, _, _) -> c | None -> 0
let total_ns v name = match layer_row v name with Some (_, _, t, _) -> t | None -> 0
let self_ns v name = match layer_row v name with Some (_, _, _, s) -> s | None -> 0

let count v name =
  match List.assoc_opt name v.snap.Span.counts with Some x -> x | None -> 0.

let ratio a b = if b = 0. then 0. else a /. b

(* mean self time per call, over one or more span names *)
let ms_per_call names v =
  let sum f = List.fold_left (fun a n -> a + f v n) 0 names in
  ratio (float_of_int (sum self_ns)) (float_of_int (sum calls)) /. 1e6

let per num den v = ratio (count v num) (count v den)

type layer = { lname : string; lunit : string; lbetter : string; moves : string; compute : view -> float }

let l lname lunit lbetter moves compute = { lname; lunit; lbetter; moves; compute }
let fc_evals = [ "fc.eval.ww"; "fc.eval.cube_free"; "fc.eval.fib"; "fc.eval.vbv" ]
let per_drain name v = per name "dist.drains" v

(* Each layer metric names the end-to-end metric and workload it should
   move; a change to that layer that does not move it there has not
   made the system faster. Layers a workload never enters read 0. *)
let layers =
  [
    l "efgame.make_ms" "ms" "lower" "latency_p50_ms on decide" (ms_per_call [ "efgame.make" ]);
    l "efgame.decide_ms" "ms" "lower" "ops_per_s on decide and decide_session"
      (ms_per_call [ "efgame.decide" ]);
    l "efgame.ns_per_node" "ns/node" "lower" "ops_per_s on decide and decide_session" (fun v ->
        ratio (float_of_int (self_ns v "efgame.decide")) (count v "efgame.nodes"));
    l "efgame.nodes_per_op" "count" "lower" "cpu_ms_per_op on decide"
      (per "efgame.nodes" "efgame.solves");
    l "efgame.memo_entries_per_op" "count" "lower" "peak_heap_mb on decide"
      (per "efgame.memo_entries" "efgame.solves");
    l "cache.hit_ratio" "ratio" "higher" "ops_per_s on decide_session and frontier_warm" (fun v ->
        ratio (count v "cache.hits") (count v "cache.hits" +. count v "cache.misses"));
    l "cache.stores" "count" "lower" "ops_per_s and peak_heap_mb on decide_session"
      (per "cache.stores" "cache.tables");
    l "cache.misses" "count" "lower" "peak_heap_mb on frontier_cold" (per "cache.misses" "cache.tables");
    l "cache.entries" "count" "lower" "peak_heap_mb on decide_session and frontier_cold"
      (per "cache.entries" "cache.tables");
    l "witness.scan_ms" "ms" "lower" "latency_p50_ms on frontier_cold and frontier_warm"
      (ms_per_call [ "witness.scan" ]);
    l "witness.pairs" "count" "lower" "cpu_ms_per_op on frontier_cold and frontier_warm"
      (per "witness.pairs" "witness.scans");
    l "witness.nodes" "count" "lower" "cpu_ms_per_op on frontier_cold and frontier_warm"
      (per "witness.nodes" "witness.scans");
    l "scheduler.chunks" "count" "lower" "cpu_ms_per_op on frontier_cold and frontier_warm"
      (per "scheduler.chunks" "witness.scans");
    l "persist.save_ms" "ms" "lower" "latency_p90_ms on frontier_cold" (ms_per_call [ "persist.save" ]);
    l "persist.save_bytes" "B" "lower" "latency_p90_ms on frontier_cold" (fun v ->
        ratio (count v "persist.save_bytes") (float_of_int (calls v "persist.save")));
    l "persist.load_ms" "ms" "lower" "latency_p50_ms on frontier_warm" (ms_per_call [ "persist.load" ]);
    l "spanner.extract_ms" "ms" "lower" "latency_p50_ms and latency_p90_ms on extract"
      (ms_per_call [ "spanner.extract" ]);
    l "spanner.ns_per_byte" "ns/B" "lower" "latency_p50_ms and latency_p90_ms on extract" (fun v ->
        ratio (float_of_int (self_ns v "spanner.extract")) (count v "spanner.bytes"));
    l "spanner.select_ms" "ms" "lower" "ops_per_s on extract" (ms_per_call [ "spanner.select" ]);
    l "spanner.parse_ms" "ms" "lower" "setup_s on extract" (ms_per_call [ "spanner.parse" ]);
    l "spanner.rows_per_op" "count" "higher" "nothing: a correctness companion" (fun v ->
        ratio (count v "spanner.rows")
          (float_of_int (calls v "spanner.extract" + calls v "spanner.select")));
    l "fc.structure_ms" "ms" "lower" "latency_p50_ms on model_check" (ms_per_call [ "fc.structure" ]);
    l "fc.eval_ms" "ms" "lower" "ops_per_s and latency_p90_ms on model_check" (ms_per_call fc_evals);
    l "fc.eval.ww_ms" "ms" "lower" "ops_per_s and latency_p90_ms on model_check"
      (ms_per_call [ "fc.eval.ww" ]);
    l "fc.eval.cube_free_ms" "ms" "lower" "ops_per_s and latency_p90_ms on model_check"
      (ms_per_call [ "fc.eval.cube_free" ]);
    l "fc.eval.fib_ms" "ms" "lower" "ops_per_s and latency_p90_ms on model_check"
      (ms_per_call [ "fc.eval.fib" ]);
    l "fc.eval.vbv_ms" "ms" "lower" "ops_per_s and latency_p90_ms on model_check"
      (ms_per_call [ "fc.eval.vbv" ]);
    l "fc.fo_eq_ms" "ms" "lower" "latency_p90_ms on model_check" (ms_per_call [ "fc.fo_eq" ]);
    l "dist.init_ms" "ms" "lower" "setup_s on shard_drain" (ms_per_call [ "dist.init" ]);
    l "dist.shard_scan_s" "s" "lower" "cpu_ms_per_op on shard_drain" (fun v ->
        per_drain "dist.shard_scan_ns" v /. 1e9);
    l "dist.worker_overhead_s" "s" "lower" "latency_p50_ms on shard_drain" (fun v ->
        (per_drain "dist.worker_run_ns" v -. per_drain "dist.shard_scan_ns" v) /. 1e9);
    l "dist.drain_tail_ms" "ms" "lower" "latency_p50_ms on shard_drain" (fun v ->
        per_drain "dist.drain_tail_ns" v /. 1e6);
    l "dist.merge_ms" "ms" "lower" "latency_p50_ms on shard_drain" (ms_per_call [ "dist.merge" ]);
    l "dist.parallel_efficiency" "ratio" "higher" "ops_per_s on shard_drain"
      (per_drain "dist.parallel_efficiency");
    l "dist.claimed" "count" "lower" "failed_ratio and cpu_ms_per_op on shard_drain"
      (per_drain "dist.claimed");
    l "dist.reclaimed" "count" "lower" "failed_ratio and cpu_ms_per_op on shard_drain"
      (per_drain "dist.reclaimed");
    l "dist.requeued" "count" "lower" "failed_ratio and cpu_ms_per_op on shard_drain"
      (per_drain "dist.requeued");
    l "dist.quarantined" "count" "lower" "failed_ratio and cpu_ms_per_op on shard_drain"
      (per_drain "dist.quarantined");
    l "dist.speculated" "count" "lower" "failed_ratio and cpu_ms_per_op on shard_drain"
      (per_drain "dist.speculated");
    l "bench.attributed_share" "ratio" "higher" "nothing: health of the trace" (fun v ->
        ratio (float_of_int v.snap.Span.attributed) (float_of_int (total_ns v "op")));
    l "obs.trace_overhead" "ratio" "lower" "nothing: health of the trace" (fun v ->
        ratio v.traced_op_s v.untraced_op_s);
  ]

(* ---- the report ------------------------------------------------- *)

type row = { workload : string; untraced : (outcome, string) result; traced : (outcome, string) result option }

module J = Obs.Jsonw

(* every digit the float has: a time must not read the same on two runs
   just because it was rounded *)
let num j x = if Float.is_finite x then J.raw j (Printf.sprintf "%.17g" x) else J.null j

let field_value j name { v; unit; note } =
  J.field j name (fun j ->
      J.obj j (fun j ->
          (match v with Some x -> J.field j "value" (fun j -> num j x) | None -> J.field_null j "value");
          J.field_string j "unit" unit;
          Option.iter (J.field_string j "note") note))

let layer_values (untraced : outcome) (traced : outcome) =
  match traced.trace with
  | None -> []
  | Some snap ->
      let view = { snap; untraced_op_s = sum untraced.lat_ms; traced_op_s = sum traced.lat_ms } in
      List.map (fun d -> (d.lname, { v = Some (d.compute view); unit = d.lunit; note = None })) layers

let write path ~seed ~seconds ~smoke ~traced rows =
  J.to_file path (fun j ->
      J.obj j (fun j ->
          J.field_string j "schema" "efgame-e2e/1";
          J.field_int j "seed" seed;
          J.field j "seconds" (fun j -> num j seconds);
          J.field_bool j "smoke" smoke;
          J.field_bool j "traced" traced;
          J.field j "environment" (Obs.Env.emit (Obs.Env.capture ()));
          J.field j "workloads" (fun j ->
              J.obj j (fun j ->
                  List.iter
                    (fun row ->
                      J.field j row.workload (fun j ->
                          J.obj j (fun j ->
                              match row.untraced with
                              | Error e ->
                                  J.field_string j "error" e;
                                  J.field_int j "ops" 0;
                                  J.field_int j "failed" 1;
                                  J.field_int j "mismatches" 1
                              | Ok o ->
                                  J.field_int j "ops" o.ops;
                                  J.field_int j "failed" o.failed;
                                  J.field_int j "mismatches" o.mismatches;
                                  J.field j "notes" (fun j ->
                                      J.arr j (fun j -> List.iter (J.string j) (List.rev o.notes)));
                                  J.field j "loop_s" (fun j -> num j o.loop_s);
                                  J.field j "setup_runs_s" (fun j ->
                                      J.arr j (fun j -> List.iter (num j) o.setup_s));
                                  J.field j "metrics" (fun j ->
                                      J.obj j (fun j ->
                                          List.iter (fun (n, v) -> field_value j n v) (e2e_values o)));
                                  match row.traced with
                                  | None -> ()
                                  | Some (Error e) -> J.field_string j "trace_error" e
                                  | Some (Ok t) ->
                                      J.field j "layers" (fun j ->
                                          J.obj j (fun j ->
                                              List.iter (fun (n, v) -> field_value j n v)
                                                (layer_values o t))))))
                    rows));
          J.field j "layer_map" (fun j ->
              J.arr j (fun j ->
                  List.iter
                    (fun d ->
                      J.obj j (fun j ->
                          J.field_string j "name" d.lname;
                          J.field_string j "unit" d.lunit;
                          J.field_string j "better" d.lbetter;
                          J.field_string j "moves" d.moves))
                    layers))))

(* Chrome trace: one process per workload, complete events carrying
   the span id, parent and operation id. *)
let write_trace path rows =
  J.to_file path (fun j ->
      J.obj j (fun j ->
          J.field_string j "displayTimeUnit" "ms";
          J.field j "traceEvents" (fun j ->
              J.arr j (fun j ->
                  List.iteri
                    (fun pid row ->
                      match row.traced with
                      | Some (Ok { trace = Some snap; _ }) ->
                          J.obj j (fun j ->
                              J.field_string j "name" "process_name";
                              J.field_string j "ph" "M";
                              J.field_int j "pid" pid;
                              J.field j "args" (fun j ->
                                  J.obj j (fun j -> J.field_string j "name" row.workload)));
                          let t0 =
                            match snap.Span.spans with s :: _ -> s.Span.s_start_ns | [] -> 0
                          in
                          List.iter
                            (fun (s : Span.span) ->
                              J.obj j (fun j ->
                                  J.field_string j "name" s.s_name;
                                  J.field_string j "ph" "X";
                                  J.field j "ts" (fun j -> num j (float_of_int (s.s_start_ns - t0) /. 1e3));
                                  J.field j "dur" (fun j -> num j (float_of_int s.s_dur_ns /. 1e3));
                                  J.field_int j "pid" pid;
                                  J.field_int j "tid" 1;
                                  J.field j "args" (fun j ->
                                      J.obj j (fun j ->
                                          J.field_int j "id" s.s_id;
                                          J.field_int j "parent" s.s_parent;
                                          J.field_int j "op" s.s_op))))
                            snap.Span.spans
                      | _ -> ())
                    rows))))

(* ---- readers ---------------------------------------------------- *)

module R = Obs.Jsonr

let load path = match R.of_file path with Ok v -> v | Error e -> failwith e

let entries key bench =
  match R.mem_list key bench with
  | Some l -> l
  | None -> failwith ("BENCHMARK.json: no " ^ key)

let names key bench = List.filter_map (R.mem_string "name") (entries key bench)

let names_units key bench =
  List.filter_map
    (fun m ->
      match (R.mem_string "name" m, R.mem_string "unit" m) with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    (entries key bench)

let metric_value report ~workload ~section ~name =
  Option.bind (R.member "workloads" report) (fun w ->
      Option.bind (R.member workload w) (fun w ->
          Option.bind (R.member section w) (R.member name)))

(* The smoke test's assertions: the report parses, names every workload
   and metric BENCHMARK.json lists (a null value must say why), and no
   operation failed. Returns the problems found. *)
let check ~benchmark ~report =
  let bench = load benchmark and rep = load report in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun workload ->
      let present section (name, unit) =
        match metric_value rep ~workload ~section ~name with
        | None -> problem "%s: %s.%s missing" workload section name
        | Some m -> (
            if R.mem_string "unit" m <> Some unit then
              problem "%s: %s is not in %s as BENCHMARK.json says" workload name unit;
            match (R.mem_float "value" m, R.mem_string "note" m) with
            | Some _, _ | None, Some _ -> ()
            | None, None -> problem "%s: %s is null without a reason" workload name)
      in
      if metric_value rep ~workload ~section:"metrics" ~name:"failed_ratio" = None then
        problem "%s: no metrics (error: %s)" workload
          (Option.value ~default:"none"
             (Option.bind (R.member "workloads" rep) (fun w ->
                  Option.bind (R.member workload w) (R.mem_string "error"))))
      else begin
        List.iter (present "metrics") (names_units "end_to_end" bench);
        match Option.bind (R.member "workloads" rep) (R.member workload) with
        | Some w when R.member "layers" w <> None ->
            List.iter (present "layers") (names_units "per_layer" bench)
        | _ -> problem "%s: no per-layer metrics (the report is not from a --trace run)" workload
      end;
      match
        Option.bind (metric_value rep ~workload ~section:"metrics" ~name:"failed_ratio")
          (R.mem_float "value")
      with
      | Some 0. | None -> ()
      | Some x -> problem "%s: failed_ratio is %g" workload x)
    (names "workloads" bench);
  List.rev !problems

let bounds bench =
  match R.mem_list "end_to_end" bench with
  | None -> []
  | Some l ->
      List.filter_map
        (fun m ->
          match (R.mem_string "name" m, R.mem_string "better" m, R.mem_float "bound" m) with
          | Some n, Some b, Some x -> Some (n, (b, x))
          | _ -> None)
        l

(* Per workload × metric: each side's quartiles, then the verdict.
   "unresolved" when either side's own spread (q3 - q1 over the median)
   exceeds the bound; otherwise a median worse by more than the bound is
   a regression. failed_ratio may not rise at all. Returns whether any
   metric regressed. *)
let compare ~benchmark a_files b_files =
  let bench = load benchmark in
  let bounds = ("failed_ratio", ("lower", 0.)) :: bounds bench in
  let a = List.map load a_files and b = List.map load b_files in
  let values reports workload name =
    List.filter_map
      (fun r ->
        Option.bind (metric_value r ~workload ~section:"metrics" ~name) (R.mem_float "value"))
      reports
  in
  let regressed = ref false in
  Printf.printf "%-15s %-15s %28s %28s %8s  %s\n" "workload" "metric" "A q1/median/q3"
    "B q1/median/q3" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, (better, bound)) ->
          match (values a workload metric, values b workload metric) with
          | [], _ | _, [] -> Printf.printf "%-15s %-15s %s\n" workload metric "no values"
          | av, bv ->
              let q1a, ma, q3a = Stats.quartiles av and q1b, mb, q3b = Stats.quartiles bv in
              let spread q1 m q3 = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
              let change = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
              let worse = if better = "lower" then change else -.change in
              let verdict =
                if metric = "failed_ratio" then
                  if mb > ma then "REGRESSED" else "ok"
                else if spread q1a ma q3a > bound || spread q1b mb q3b > bound then "unresolved"
                else if worse > bound then "REGRESSED"
                else "ok"
              in
              if verdict = "REGRESSED" then regressed := true;
              let side q1 m q3 = Printf.sprintf "%.4g/%.4g/%.4g" q1 m q3 in
              Printf.printf "%-15s %-15s %28s %28s %+7.1f%%  %s\n" workload metric
                (side q1a ma q3a) (side q1b mb q3b) (100. *. change) verdict)
        bounds)
    (names "workloads" bench);
  !regressed
