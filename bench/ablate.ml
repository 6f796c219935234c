(* Ablation sweep over the solver's run-time flags.

   Each template toggles exactly one flag relative to the baseline
   (transposition table on, one domain), so every column of the matrix
   isolates one mechanism's contribution:

     cache=off      the transposition table (Seed vs Cached scan);
     jobs=2         the parallel pair scheduler (two worker domains).

   Rows are the solver workloads from bench/main.ml, including the two
   hot rows (scan_k3_cached and fooling_pipeline). A cell is null when the row has no meaningful
   setting of the toggled flag (e.g. the exhaustive k=3 scan without a
   table would dominate the sweep's wall clock; a single decide such as
   unary_equiv runs on one domain, so it has no jobs=2 cell).

   Output: a human table on stdout and, with --json PATH, a
   machine-readable matrix (schema efgame-ablate/1) carrying the same
   environment block as the bench report, so CI can refuse to compare
   numbers across machines. `bench/sweep.sh` drives this together with
   the bench run. *)

let unary n = String.make n 'a'

type config = { cached : bool; jobs : int }

let baseline = { cached = true; jobs = 1 }

type template = {
  t_name : string;  (** the toggled flag, or "baseline" *)
  config : config;
}

let templates =
  [
    { t_name = "baseline"; config = baseline };
    { t_name = "cache=off"; config = { baseline with cached = false } };
    { t_name = "jobs=2"; config = { baseline with jobs = 2 } };
  ]

type row = {
  r_name : string;
  supports_cache : bool;  (** has a meaningful cache=off variant *)
  supports_jobs : bool;  (** has a parallel variant *)
  run : config -> unit;
}

let scan_engine cfg =
  if cfg.jobs > 1 then Efgame.Witness.Parallel (Efgame.Cache.create (), cfg.jobs)
  else if cfg.cached then Efgame.Witness.Cached (Efgame.Cache.create ())
  else Efgame.Witness.Seed

let rows =
  [
    {
      r_name = "efgame/scan_k3_cached(exhaustive, n<=40)";
      supports_cache = false;
      supports_jobs = true;
      run =
        (fun cfg ->
          ignore
            (Efgame.Witness.minimal_pair ~engine:(scan_engine cfg) ~k:3
               ~max_n:40 ()));
    };
    {
      r_name = "core/fooling_pipeline(k=1,(3,4))";
      supports_cache = false;
      supports_jobs = false;
      run =
        (fun _ ->
          ignore (Core.Fooling.fool Core.Fooling.l5_instance ~k:1 ~p:3 ~q:4));
    };
    {
      r_name = "efgame/scan_k2(minimal pair, n<=14)";
      supports_cache = true;
      supports_jobs = true;
      run =
        (fun cfg ->
          ignore
            (Efgame.Witness.minimal_pair ~engine:(scan_engine cfg) ~k:2
               ~max_n:14 ()));
    };
    {
      r_name = "efgame/unary_equiv(a^12 vs a^14, k=2)";
      supports_cache = true;
      supports_jobs = false;
      run =
        (fun cfg ->
          let w, v = (unary 12, unary 14) in
          if cfg.cached then
            ignore (Efgame.Game.equiv ~cache:(Efgame.Cache.create ()) w v 2)
          else ignore (Efgame.Game.equiv w v 2));
    };
    {
      r_name = "efgame/existential(a^3 into a^5, k=2)";
      supports_cache = false;
      supports_jobs = false;
      run = (fun _ -> ignore (Efgame.Existential.equiv (unary 3) (unary 5) 2));
    };
  ]

let applicable row t =
  (t.config.cached = baseline.cached || row.supports_cache)
  && (t.config.jobs = baseline.jobs || row.supports_jobs)

(* best-of-reps wall time *)
let measure ~reps row t =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    row.run t.config;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let rec find_path flag = function
    | f :: path :: _ when f = flag -> Some path
    | _ :: rest -> find_path flag rest
    | [] -> None
  in
  let json = find_path "--json" args in
  let reps =
    match find_path "--reps" args with
    | Some n -> int_of_string n
    | None -> if smoke then 1 else 3
  in
  let filter =
    let rec go = function
      | ("--json" | "--reps") :: _ :: rest -> go rest
      | "--smoke" :: rest -> go rest
      | a :: _ -> Some a
      | [] -> None
    in
    go args
  in
  let rows =
    match filter with
    | None -> rows
    | Some sub ->
        List.filter (fun r -> contains_substring ~needle:sub r.r_name) rows
  in
  let env = Obs.Env.capture () in
  Printf.printf "ablate: %d rows x %d templates, best of %d rep%s\n%!"
    (List.length rows) (List.length templates) reps
    (if reps = 1 then "" else "s");
  let matrix =
    List.map
      (fun row ->
        let cells =
          List.map
            (fun t ->
              if not (applicable row t) then (t.t_name, None)
              else begin
                let s = measure ~reps row t in
                Printf.printf "  %-44s %-12s %8.1f ms\n%!" row.r_name t.t_name
                  (s *. 1e3);
                (t.t_name, Some s)
              end)
            templates
        in
        (row.r_name, cells))
      rows
  in
  (* relative cost of each single-flag toggle, over the baseline cell *)
  let relatives =
    List.filter_map
      (fun (name, cells) ->
        match List.assoc "baseline" cells with
        | Some base when base > 0. ->
            Some
              ( name,
                List.filter_map
                  (fun (t, c) ->
                    if t = "baseline" then None
                    else Option.map (fun s -> (t, s /. base)) c)
                  cells )
        | _ -> None)
      matrix
  in
  print_newline ();
  List.iter
    (fun (name, rs) ->
      Printf.printf "%-46s %s\n" name
        (String.concat "  "
           (List.map (fun (t, r) -> Printf.sprintf "%s: %.2fx" t r) rs)))
    relatives;
  match json with
  | None -> ()
  | Some path ->
      Obs.Jsonw.to_file path (fun j ->
          Obs.Jsonw.obj j (fun j ->
              Obs.Jsonw.field_string j "schema" "efgame-ablate/1";
              Obs.Jsonw.field_bool j "smoke" smoke;
              Obs.Jsonw.field_int j "reps" reps;
              Obs.Jsonw.field_string j "units" "seconds";
              Obs.Jsonw.field_string j "baseline" "baseline";
              Obs.Jsonw.field j "environment" (Obs.Env.emit env);
              Obs.Jsonw.field j "templates" (fun j ->
                  Obs.Jsonw.obj j (fun j ->
                      List.iter
                        (fun t ->
                          Obs.Jsonw.field j t.t_name (fun j ->
                              Obs.Jsonw.obj j (fun j ->
                                  Obs.Jsonw.field_bool j "cache" t.config.cached;
                                  Obs.Jsonw.field_int j "jobs" t.config.jobs)))
                        templates));
              Obs.Jsonw.field j "matrix" (fun j ->
                  Obs.Jsonw.obj j (fun j ->
                      List.iter
                        (fun (name, cells) ->
                          Obs.Jsonw.field j name (fun j ->
                              Obs.Jsonw.obj j (fun j ->
                                  List.iter
                                    (fun (t, c) ->
                                      match c with
                                      | Some s ->
                                          Obs.Jsonw.field_float ~prec:6 j t s
                                      | None -> Obs.Jsonw.field_null j t)
                                    cells)))
                        matrix));
              Obs.Jsonw.field j "relative_to_baseline" (fun j ->
                  Obs.Jsonw.obj j (fun j ->
                      List.iter
                        (fun (name, rs) ->
                          Obs.Jsonw.field j name (fun j ->
                              Obs.Jsonw.obj j (fun j ->
                                  List.iter
                                    (fun (t, r) ->
                                      Obs.Jsonw.field_float ~prec:4 j t r)
                                    rs)))
                        relatives))));
      Printf.printf "\njson: wrote %s\n%!" path
