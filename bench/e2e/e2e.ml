(* End-to-end benchmark runner. See README.md in this directory.

     e2e.exe [--seed S] [--workload W]... [--seconds T] [--json F]
             [--trace F] [--smoke] [--workdir D]
     e2e.exe --check REPORT [--benchmark BENCHMARK.json]
     e2e.exe [--benchmark BENCHMARK.json] --compare A.json... -- B.json...
     e2e.exe --write-golden PATH

   Every workload runs in a fresh process (this executable again, with
   --child), so its peak heap is its own and not a high-water mark
   inherited through fork; a traced rerun of the same operations runs in
   another one. *)

let usage () =
  prerr_endline
    "usage: e2e.exe [--seed S] [--workload W]... [--seconds T] [--json F] [--trace F] \
     [--smoke] [--workdir D]\n\
    \       e2e.exe --check REPORT [--benchmark B]\n\
    \       e2e.exe [--benchmark B] --compare A.json... -- B.json...\n\
    \       e2e.exe --write-golden PATH";
  exit 2

type budget = Seconds of float | Replay of int

let measure (w : Workloads.t) env ~budget ~traced =
  Unix.mkdir env.Workloads.workdir 0o755;
  Span.enabled := traced;
  (* set-up is repeated and its median reported, so one slow set-up does
     not read as a regression: five times, or three when that already
     took two seconds; a traced rerun needs only one *)
  let times = ref [] in
  let loop = ref (Workloads.Unmeasurable "no set-up ran") in
  let rec set_up n spent =
    let t0 = Span.now_ns () in
    loop := w.setup env;
    let s = float_of_int (Span.now_ns () - t0) /. 1e9 in
    times := s :: !times;
    if not (traced || n >= 5 || (n >= 3 && spent +. s >= 2.)) then set_up (n + 1) (spent +. s)
  in
  set_up 1 0.;
  let r =
    Run.create
      (match budget with
      | Seconds s -> Run.Deadline (Span.now_ns () + int_of_float (s *. 1e9))
      | Replay n -> Run.Ops n)
  in
  let t0 = Span.now_ns () in
  let unmeasurable =
    match !loop with
    | Workloads.Measured run ->
        run r;
        None
    | Workloads.Unmeasurable reason -> Some reason
  in
  (* read before the outcome's arrays are built on the heap *)
  let heap_words = max (Gc.quick_stat ()).Gc.top_heap_words r.worker_heap_words in
  {
    Report.setup_s = List.rev !times;
    ops = r.ops;
    failed = r.failed;
    mismatches = r.mismatches;
    notes = r.notes;
    lat_ms = Run.to_array r.lat_ms r.ops;
    cpu_ms = Run.to_array r.cpu_ms r.ops;
    heap_words;
    pass_ends = List.rev r.pass_ends;
    loop_s = float_of_int (Span.now_ns () - t0) /. 1e9;
    unmeasurable;
    trace = (if traced then Some (Span.snapshot ()) else None);
  }

(* Run one workload in a fresh process and read back its outcome. *)
let spawn ~result args =
  flush_all ();
  let argv = Array.of_list (Sys.executable_name :: "--child" :: result :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
  let status = snd (Unix.waitpid [] pid) in
  let r =
    match open_in_bin result with
    | exception Sys_error _ -> Error "workload process died without a result"
    | ic ->
        let r =
          try (Marshal.from_channel ic : (Report.outcome, string) result)
          with End_of_file | Failure _ -> Error "workload process left a torn result"
        in
        close_in ic;
        Sys.remove result;
        r
  in
  match (status, r) with
  | Unix.WEXITED 0, r -> r
  | _, Ok _ -> Error "workload process exited abnormally"
  | _, e -> e

let print_row (row : Report.row) =
  match row.untraced with
  | Error e -> Printf.printf "== %s: FAILED: %s\n%!" row.workload e
  | Ok o ->
      Printf.printf "== %s: %d ops in %.2f s, %d failed\n" row.workload o.ops o.loop_s o.failed;
      List.iter (Printf.printf "   ! %s\n") (List.rev o.notes);
      let show (name, (v : Report.value)) =
        match v.v with
        | Some x ->
            Printf.printf "   %-26s %14.6g %-7s%s\n" name x v.unit
              (match v.note with Some n -> "  (" ^ n ^ ")" | None -> "")
        | None ->
            Printf.printf "   %-26s %14s %-7s  (%s)\n" name "null" v.unit
              (Option.value v.note ~default:"")
      in
      List.iter show (Report.e2e_values o);
      (match row.traced with
      | Some (Ok t) ->
          (* the JSON report has every layer; layers this workload never
             enters read 0 and are left out here *)
          List.iter show
            (List.filter (fun (_, (v : Report.value)) -> v.v <> Some 0.) (Report.layer_values o t))
      | Some (Error e) -> Printf.printf "   traced rerun FAILED: %s\n" e
      | None -> ());
      flush stdout

let run_workloads ~seed ~seconds ~smoke ~workloads ~json ~trace ~workdir =
  let root =
    match workdir with
    | Some d ->
        if not (Sys.file_exists d) then Unix.mkdir d 0o755;
        Filename.temp_dir ~temp_dir:d "e2e-" ""
    | None -> Filename.temp_dir "e2e-" ""
  in
  let child (w : Workloads.t) pass extra =
    spawn
      ~result:(Filename.concat root (w.name ^ "-" ^ pass ^ ".result"))
      ([ "--workload"; w.name; "--seed"; string_of_int seed;
         "--workdir"; Filename.concat root (w.name ^ "-" ^ pass) ]
      @ (if smoke then [ "--smoke" ] else [])
      @ extra)
  in
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let untraced = child w "run" [ "--seconds"; Printf.sprintf "%.17g" seconds ] in
        let traced =
          match (trace, untraced) with
          | Some _, Ok o -> Some (child w "trace" [ "--replay"; string_of_int o.ops ])
          | _ -> None
        in
        let row = { Report.workload = w.name; untraced; traced } in
        print_row row;
        row)
      workloads
  in
  Workloads.rm_rf root;
  Option.iter (fun path -> Report.write path ~seed ~seconds ~smoke ~traced:(trace <> None) rows) json;
  Option.iter (fun path -> Report.write_trace path rows) trace;
  let bad =
    List.exists
      (fun (row : Report.row) ->
        match row.untraced with Error _ -> true | Ok o -> o.mismatches > 0)
      rows
  in
  exit (if bad then 1 else 0)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let seed = ref 1 and seconds = ref None and smoke = ref false in
  let json = ref None and trace = ref None and workdir = ref None in
  let names = ref [] and benchmark = ref "BENCHMARK.json" in
  let replay = ref None and child = ref None in
  let rec go = function
    | [] -> `Run
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with Some n -> seed := n; go rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some x when x > 0. -> seconds := Some x; go rest
        | _ -> usage ())
    | "--workload" :: w :: rest -> names := w :: !names; go rest
    | "--json" :: f :: rest -> json := Some f; go rest
    | "--trace" :: f :: rest -> trace := Some f; go rest
    | "--workdir" :: d :: rest -> workdir := Some d; go rest
    | "--benchmark" :: f :: rest -> benchmark := f; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | "--check" :: f :: rest -> ignore (go rest); `Check f
    | "--write-golden" :: [ f ] -> `Golden f
    | "--compare" :: rest ->
        let rec split acc = function
          | "--" :: b -> (List.rev acc, b)
          | f :: rest -> split (f :: acc) rest
          | [] -> usage ()
        in
        let a, b = split [] rest in
        if a = [] || b = [] then usage ();
        `Compare (a, b)
    (* internal: one workload in this process, outcome marshalled to a file *)
    | "--child" :: f :: rest -> child := Some f; go rest
    | "--replay" :: n :: rest -> (
        match int_of_string_opt n with Some n -> replay := Some n; go rest | None -> usage ())
    | _ -> usage ()
  in
  let mode = go args in
  let workloads =
    match List.rev !names with
    | [] -> Workloads.all
    | ns ->
        List.map
          (fun n ->
            match List.find_opt (fun (w : Workloads.t) -> w.name = n) Workloads.all with
            | Some w -> w
            | None ->
                Printf.eprintf "e2e: unknown workload %s\n" n;
                exit 2)
          ns
  in
  let seconds = Option.value !seconds ~default:(if !smoke then 0.3 else 10.) in
  match (mode, !child, workloads, !workdir) with
  | `Run, Some result, [ w ], Some dir ->
      let env = { Workloads.seed = !seed; smoke = !smoke; workdir = dir } in
      let budget, traced =
        match !replay with Some n -> (Replay n, true) | None -> (Seconds seconds, false)
      in
      let r = try Ok (measure w env ~budget ~traced) with e -> Error (Printexc.to_string e) in
      let oc = open_out_bin result in
      Marshal.to_channel oc (r : (Report.outcome, string) result) [];
      close_out oc
  | _, Some _, _, _ -> usage ()
  | `Golden path, None, _, _ -> Pool.write_golden path
  | `Check report, None, _, _ -> (
      match Report.check ~benchmark:!benchmark ~report with
      | [] -> Printf.printf "check: %s covers every name in %s, no failures\n" report !benchmark
      | problems ->
          List.iter (Printf.eprintf "check: %s\n") problems;
          exit 1)
  | `Compare (a, b), None, _, _ -> if Report.compare ~benchmark:!benchmark a b then exit 1
  | `Run, None, _, _ ->
      run_workloads ~seed:!seed ~seconds ~smoke:!smoke ~workloads ~json:!json ~trace:!trace
        ~workdir:!workdir
