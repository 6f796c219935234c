(* Bechamel micro-benchmarks — one per experiment engine plus the ablations
   called out in DESIGN.md. Run with `dune exec bench/main.exe`; pass a
   substring to filter, e.g. `dune exec bench/main.exe -- efgame`. *)

open Bechamel
open Toolkit

let unary n = String.make n 'a'
let rep = Words.Word.repeat

(* words ------------------------------------------------------------- *)

let bench_factor_set =
  Test.make ~name:"words/factor_set(a^40 b^40)"
    (Staged.stage (fun () -> ignore (Words.Factors.of_word (unary 40 ^ String.make 40 'b'))))

let bench_factorize =
  let power = rep "aab" 40 in
  let facs = Words.Factors.of_word power |> Words.Factors.to_list in
  Test.make ~name:"words/factorize_in_power(aab^40)"
    (Staged.stage (fun () ->
         List.iter
           (fun u ->
             if Words.Primitive.exp ~base:"aab" u > 0 then
               ignore (Words.Primitive.factorize_in_power ~base:"aab" u))
           facs))

let bench_coprimitive =
  Test.make ~name:"words/coprimitive(abaabb,bbaaba)"
    (Staged.stage (fun () ->
         ignore (Words.Conjugacy.coprimitive_max_common_factor "abaabb" "bbaaba" ~max_exp:4)))

(* semilinear --------------------------------------------------------- *)

let bench_semilinear_membership =
  let s = Semilinear.Set.star (Semilinear.Set.of_list [ 6; 10; 15 ]) in
  Test.make ~name:"semilinear/membership"
    (Staged.stage (fun () ->
         for n = 0 to 500 do
           ignore (Semilinear.Set.mem s n)
         done))

let bench_semilinear_star =
  Test.make ~name:"semilinear/star<6,10,15>"
    (Staged.stage (fun () -> ignore (Semilinear.Set.star (Semilinear.Set.of_list [ 6; 10; 15 ]))))

(* regex: derivative vs NFA vs compiled DFA (ablation) ---------------- *)

let regex_r = Regex_engine.Regex.parse_exn "(a|b)*abb(a|b)*"
let regex_doc = rep "ab" 60 ^ "abb" ^ rep "ba" 60

let bench_regex_deriv =
  Test.make ~name:"regex/deriv_match"
    (Staged.stage (fun () -> ignore (Regex_engine.Regex.matches regex_r regex_doc)))

let bench_regex_nfa =
  let nfa = Regex_engine.Nfa.of_regex regex_r in
  Test.make ~name:"regex/nfa_match"
    (Staged.stage (fun () -> ignore (Regex_engine.Nfa.accepts nfa regex_doc)))

let bench_regex_dfa =
  let dfa = Regex_engine.Dfa.of_regex regex_r in
  Test.make ~name:"regex/dfa_match"
    (Staged.stage (fun () -> ignore (Regex_engine.Dfa.accepts dfa regex_doc)))

let bench_dfa_minimize =
  Test.make ~name:"regex/determinize+minimize"
    (Staged.stage (fun () ->
         ignore (Regex_engine.Dfa.minimize (Regex_engine.Dfa.of_regex regex_r))))

let bench_boundedness =
  let d =
    Regex_engine.Dfa.of_regex ~alphabet:[ 'a'; 'b' ]
      (Regex_engine.Regex.parse_exn "a*(ba)*b*")
  in
  Test.make ~name:"regex/boundedness_decision"
    (Staged.stage (fun () -> ignore (Regex_engine.Bounded.is_bounded d)))

(* fc: guided vs naive evaluation (ablation) + experiment drivers ----- *)

let bench_fc_fib_guided =
  let st = Fc.Structure.make ~sigma:[ 'a'; 'b'; 'c' ] (Words.Fibonacci.l_fib_word 4) in
  Test.make ~name:"fc/eval_fib_guided(n=4)  [E4]"
    (Staged.stage (fun () -> ignore (Fc.Eval.holds st Fc.Builders.fib)))

let bench_fc_ww_guided =
  let st = Fc.Structure.make ~sigma:[ 'a'; 'b' ] (rep "ab" 24) in
  Test.make ~name:"fc/eval_ww_guided"
    (Staged.stage (fun () -> ignore (Fc.Eval.holds st Fc.Builders.ww)))

let bench_fc_ww_naive =
  let st = Fc.Structure.make ~sigma:[ 'a'; 'b' ] (rep "ab" 12) in
  Test.make ~name:"fc/eval_ww_naive(half size)"
    (Staged.stage (fun () -> ignore (Fc.Eval.holds_naive st Fc.Builders.ww)))

let bench_fc_cubefree =
  let st = Fc.Structure.make ~sigma:[ 'a'; 'b' ] (Words.Fibonacci.prefix 25) in
  Test.make ~name:"fc/eval_cube_free(F prefix 25)"
    (Staged.stage (fun () -> ignore (Fc.Eval.holds st Fc.Builders.cube_free)))

let bench_fc_vbv =
  let st = Fc.Structure.make ~sigma:[ 'a'; 'b' ] (unary 12 ^ "b" ^ unary 12) in
  Test.make ~name:"fc/eval_vbv  [E3]"
    (Staged.stage (fun () -> ignore (Fc.Eval.holds st Fc.Builders.vbv)))

let bench_bounded_compile =
  Test.make ~name:"fc/bounded_compile(a*(ba)*)  [E15]"
    (Staged.stage (fun () ->
         ignore
           (Fc.Bounded_compile.of_bounded_regex ~alphabet:[ 'a'; 'b' ]
              (Regex_engine.Regex.parse_exn "a*(ba)*")
              "x")))

(* efgame: solver across experiment shapes + ablations ---------------- *)

let bench_unary_neq =
  Test.make ~name:"efgame/unary_neq(a^8 vs a^7, k=2)  [E1]"
    (Staged.stage (fun () -> ignore (Efgame.Game.equiv (unary 8) (unary 7) 2)))

let bench_unary_witness =
  Test.make ~name:"efgame/unary_equiv(a^12 vs a^14, k=2)  [E2]"
    (Staged.stage (fun () -> ignore (Efgame.Game.equiv (unary 12) (unary 14) 2)))

let bench_anbn =
  Test.make ~name:"efgame/anbn(a^4b^3 vs a^3b^3, k=1)  [E8]"
    (Staged.stage (fun () -> ignore (Efgame.Game.equiv (unary 4 ^ "bbb") (unary 3 ^ "bbb") 1)))

let bench_powers =
  Test.make ~name:"efgame/powers((ab)^12 vs (ab)^14, k=1)  [E11]"
    (Staged.stage (fun () -> ignore (Efgame.Game.equiv (rep "ab" 12) (rep "ab" 14) 1)))

(* The E2 ≡₂ frontier scan under each table engine: a fresh table per
   run (so the time is canonicalization + pruning + the arithmetic fast
   path, not warm-cache reuse), and the same with the pair checks fanned
   out over two worker domains. *)

let bench_scan_k2_cached =
  Test.make ~name:"efgame/scan_k2_cached(minimal pair, n<=14)  [E2]"
    (Staged.stage (fun () ->
         let engine = Efgame.Witness.Cached (Efgame.Cache.create ()) in
         ignore (Efgame.Witness.minimal_pair ~engine ~k:2 ~max_n:14 ())))

let bench_scan_k2_parallel =
  Test.make ~name:"efgame/scan_k2_parallel(minimal pair, n<=14, 2 domains)  [E2]"
    (Staged.stage (fun () ->
         let engine = Efgame.Witness.Parallel (Efgame.Cache.create (), 2) in
         ignore (Efgame.Witness.minimal_pair ~engine ~k:2 ~max_n:14 ())))

let bench_frontier_k3_cached =
  Test.make ~name:"efgame/scan_k3_cached(exhaustive, n<=40)  [E2]"
    (Staged.stage (fun () ->
         let engine = Efgame.Witness.Cached (Efgame.Cache.create ()) in
         ignore (Efgame.Witness.minimal_pair ~engine ~k:3 ~max_n:40 ())))

let bench_limited_mode =
  Test.make ~name:"efgame/duplicator_limited(a^12 vs a^14, k=2) [ablation]"
    (Staged.stage (fun () ->
         ignore
           (Efgame.Game.equiv
              ~mode:(Efgame.Game.Duplicator_limited 4)
              (unary 12) (unary 14) 2)))

let bench_strategy_pseudo =
  Test.make ~name:"strategy/pseudo_congruence_certify(k=1)  [E7]"
    (Staged.stage (fun () ->
         let inst =
           { Core.Pseudo_congruence.w1 = unary 3; w2 = "bb"; v1 = unary 4; v2 = "bb" }
         in
         ignore (Core.Pseudo_congruence.certify inst ~k:1)))

let bench_strategy_power =
  Test.make ~name:"strategy/primitive_power_certify(k=1)  [E11]"
    (Staged.stage (fun () ->
         ignore (Core.Primitive_power.certify ~base:"ab" ~p:12 ~q:14 ~k:1 ())))

(* spanner ------------------------------------------------------------ *)

let bench_spanner_extract =
  let f = Spanner.Regex_formula.parse_exn "x{acheive|begining}" in
  let doc = String.concat "" (List.init 8 (fun _ -> "xyacheivezz")) in
  Test.make ~name:"spanner/extract_misspellings  [E18]"
    (Staged.stage (fun () -> ignore (Spanner.Regex_formula.matches_anywhere f doc)))

let bench_spanner_join =
  let e =
    Spanner.Algebra.Select_eq
      ("x", "y", Spanner.Algebra.Extract (Spanner.Regex_formula.parse_exn "x{(a|b)+}y{(a|b)+}"))
  in
  let doc = rep "ab" 20 in
  Test.make ~name:"spanner/select_eq_eval  [E18]"
    (Staged.stage (fun () -> ignore (Spanner.Algebra.eval e doc)))

let bench_spanner_reduction =
  let red = List.hd Core.Relations.all in
  Test.make ~name:"spanner/reduction_num_a(a^8(ba)^8)  [E16]"
    (Staged.stage (fun () ->
         ignore (Core.Relations.language_member red (unary 8 ^ rep "ba" 8))))

let bench_fooling =
  Test.make ~name:"core/fooling_pipeline(k=1,(3,4))  [E13]"
    (Staged.stage (fun () ->
         ignore (Core.Fooling.fool Core.Fooling.l5_instance ~k:1 ~p:3 ~q:4)))

let bench_langs =
  Test.make ~name:"core/find_witness_l1(k=1)  [E14]"
    (Staged.stage (fun () -> ignore (Core.Langs.find_witness Core.Langs.l1 ~k:1)))

let bench_suffix_automaton_build =
  let w = rep "abaab" 40 in
  Test.make ~name:"words/suffix_automaton_build(|w|=200) [ablation]"
    (Staged.stage (fun () -> ignore (Words.Suffix_automaton.build w)))

let bench_factor_set_vs_sa =
  let w = rep "abaab" 40 in
  Test.make ~name:"words/factor_set(|w|=200) [ablation]"
    (Staged.stage (fun () -> ignore (Words.Factors.of_word w)))

let bench_vset_eval =
  let va = Spanner.Regex_formula.compile (Spanner.Regex_formula.parse_exn "x{a*}y{(ba)*}") in
  Test.make ~name:"spanner/vset_eval [ablation]"
    (Staged.stage (fun () -> ignore (Spanner.Vset_automaton.eval va (unary 8 ^ rep "ba" 8))))

let bench_rewrite =
  let e =
    Spanner.Algebra.Project
      ( [ "x" ],
        Spanner.Algebra.Project
          ( [ "x"; "y" ],
            Spanner.Algebra.Select_eq
              ("y", "y", Spanner.Algebra.Extract (Spanner.Regex_formula.parse_exn "x{a*}y{b*}")) ) )
  in
  Test.make ~name:"spanner/rewrite_simplify"
    (Staged.stage (fun () -> ignore (Spanner.Rewrite.simplify e)))

let bench_existential =
  Test.make ~name:"efgame/existential(a^3 into a^5, k=2)  [E19]"
    (Staged.stage (fun () -> ignore (Efgame.Existential.equiv (unary 3) (unary 5) 2)))

let bench_pebble =
  Test.make ~name:"efgame/pebble(a^3 vs a^4, 1 pebble, 2 rounds)  [E20]"
    (Staged.stage (fun () -> ignore (Efgame.Pebble.equiv ~pebbles:1 ~rounds:2 (unary 3) (unary 4))))

let bench_fo_eq =
  Test.make ~name:"fc/fo_eq_ww(|w|=16)  [E21]"
    (Staged.stage (fun () -> ignore (Fc.Fo_eq.language_member Fc.Fo_eq.ww (rep "ab" 8))))

let bench_presburger =
  Test.make ~name:"semilinear/presburger_normalize  [E17]"
    (Staged.stage (fun () ->
         ignore
           (Semilinear.Presburger.to_semilinear
              (Semilinear.Presburger.And
                 (Semilinear.Presburger.Geq 5, Semilinear.Presburger.Mod (2, 12))))))

(* -------------------------------------------------------------------- *)

let all_tests =
  [
    bench_factor_set; bench_factorize; bench_coprimitive;
    bench_semilinear_membership; bench_semilinear_star;
    bench_regex_deriv; bench_regex_nfa; bench_regex_dfa; bench_dfa_minimize;
    bench_boundedness;
    bench_fc_fib_guided; bench_fc_ww_guided; bench_fc_ww_naive; bench_fc_cubefree;
    bench_fc_vbv; bench_bounded_compile;
    bench_unary_neq; bench_unary_witness; bench_anbn; bench_powers;
    bench_scan_k2_cached; bench_scan_k2_parallel;
    bench_frontier_k3_cached;
    bench_limited_mode; bench_strategy_pseudo; bench_strategy_power;
    bench_spanner_extract; bench_spanner_join; bench_spanner_reduction;
    bench_fooling; bench_langs;
    bench_suffix_automaton_build; bench_factor_set_vs_sa;
    bench_vset_eval; bench_rewrite;
    bench_existential; bench_pebble; bench_fo_eq; bench_presburger;
  ]

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let benchmark ~smoke filter =
  let tests =
    match filter with
    | None -> all_tests
    | Some sub ->
        List.filter
          (fun t ->
            List.exists
              (fun e -> contains_substring ~needle:sub (Test.Elt.name e))
              (Test.elements t))
          all_tests
  in
  let test = Test.make_grouped ~name:"bench" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    (* --smoke: run every benchmark body at least once with a minimal
       quota, as a CI-sized liveness check; estimates are meaningless *)
    if smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (name, result) ->
           match Analyze.OLS.estimates result with
           | Some [ ns ] -> (name, Some ns)
           | _ -> (name, None))
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some ns ->
          let pretty =
            if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
            else Printf.sprintf "%8.0f ns" ns
          in
          Printf.printf "%-60s %s/run\n%!" name pretty
      | None -> Printf.printf "%-60s (no estimate)\n%!" name)
    estimates;
  estimates

(* Warm-vs-cold frontier measurement for the machine-readable report: a
   cold exhaustive ≡₃ scan persisted through {!Efgame.Persist}, then the
   same scan replayed against the reloaded table. This is the number the
   persistence layer exists for, so it is recorded alongside the
   microbenchmarks on every --json run. *)

type frontier_measure = {
  fm_max_n : int;
  cold_s : float;
  warm_s : float;
  cold_nodes : int;
  warm_nodes : int;
  warm_hits : int;
  warm_misses : int;
  table_entries : int;
  table_bytes : int;
}

let measure_frontier ~max_n =
  let tbl = Filename.temp_file "efgame_bench" ".tbl" in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold_cache = Efgame.Cache.create () in
  let (_, cold_stats), cold_s =
    time (fun () ->
        Efgame.Witness.scan ~engine:(Efgame.Witness.Cached cold_cache) ~k:3
          ~max_n ())
  in
  let table_entries =
    match Efgame.Persist.save cold_cache tbl with
    | Ok n -> n
    | Error e -> Fmt.failwith "bench: saving %s: %a" tbl Efgame.Persist.pp_error e
  in
  let table_bytes = (Unix.stat tbl).Unix.st_size in
  let warm_cache = Efgame.Cache.create () in
  (match Efgame.Persist.load warm_cache tbl with
  | Ok _ -> ()
  | Error e -> Fmt.failwith "bench: reloading %s: %a" tbl Efgame.Persist.pp_error e);
  Efgame.Cache.reset_counters warm_cache;
  let (_, warm_stats), warm_s =
    time (fun () ->
        Efgame.Witness.scan ~engine:(Efgame.Witness.Cached warm_cache) ~k:3
          ~max_n ())
  in
  Sys.remove tbl;
  {
    fm_max_n = max_n;
    cold_s;
    warm_s;
    cold_nodes = cold_stats.Efgame.Witness.nodes;
    warm_nodes = warm_stats.Efgame.Witness.nodes;
    warm_hits = warm_stats.Efgame.Witness.cache_hits;
    warm_misses = warm_stats.Efgame.Witness.cache_misses;
    table_entries;
    table_bytes;
  }

let write_json ~path ~smoke ~estimates ~frontier =
  let lookups = frontier.warm_hits + frontier.warm_misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int frontier.warm_hits /. float_of_int lookups
  in
  Obs.Jsonw.to_file path (fun j ->
      Obs.Jsonw.obj j (fun j ->
          (* /3 dropped the engine field and the projected sharded_scan
             block; timings are only comparable between reports that
             agree on the environment *)
          Obs.Jsonw.field_string j "schema" "efgame-bench/3";
          Obs.Jsonw.field_bool j "smoke" smoke;
          Obs.Jsonw.field_string j "units" "ns_per_run";
          Obs.Jsonw.field j "environment" (Obs.Env.emit (Obs.Env.capture ()));
          Obs.Jsonw.field j "benchmarks" (fun j ->
              Obs.Jsonw.obj j (fun j ->
                  List.iter
                    (fun (name, est) ->
                      match est with
                      | Some ns -> Obs.Jsonw.field_float ~prec:2 j name ns
                      | None -> Obs.Jsonw.field_null j name)
                    estimates));
          Obs.Jsonw.field j "frontier_warm_vs_cold" (fun j ->
              Obs.Jsonw.obj j (fun j ->
                  Obs.Jsonw.field_int j "k" 3;
                  Obs.Jsonw.field_int j "max_n" frontier.fm_max_n;
                  Obs.Jsonw.field_float j "cold_s" frontier.cold_s;
                  Obs.Jsonw.field_float j "warm_s" frontier.warm_s;
                  Obs.Jsonw.field_float ~prec:2 j "speedup"
                    (if frontier.warm_s > 0. then
                       frontier.cold_s /. frontier.warm_s
                     else 0.);
                  Obs.Jsonw.field_int j "cold_nodes" frontier.cold_nodes;
                  Obs.Jsonw.field_int j "warm_nodes" frontier.warm_nodes;
                  Obs.Jsonw.field_float ~prec:4 j "warm_hit_rate" hit_rate;
                  Obs.Jsonw.field_int j "table_entries" frontier.table_entries;
                  Obs.Jsonw.field_int j "table_bytes" frontier.table_bytes))));
  Printf.printf "json: wrote %s (frontier n<=%d: cold %.2fs, warm %.3fs, %.0fx)\n%!"
    path frontier.fm_max_n frontier.cold_s frontier.warm_s
    (if frontier.warm_s > 0. then frontier.cold_s /. frontier.warm_s else 0.)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let rec find_path flag = function
    | f :: path :: _ when f = flag -> Some path
    | _ :: rest -> find_path flag rest
    | [] -> None
  in
  let json = find_path "--json" args in
  (match find_path "--trace" args with
  | Some path ->
      Obs.Trace.start ~path ();
      at_exit Obs.Trace.finish
  | None -> ());
  (match find_path "--metrics" args with
  | Some path ->
      Obs.Metrics.enable ();
      at_exit (fun () -> Obs.Metrics.dump ~path)
  | None -> ());
  let filter =
    let rec go = function
      | ("--json" | "--trace" | "--metrics") :: _ :: rest ->
          go rest
      | a :: rest -> if a = "--smoke" then go rest else Some a
      | [] -> None
    in
    go args
  in
  Printf.printf "bench: monotonic clock, OLS ns/run estimates%s\n%!"
    (if smoke then " (smoke mode: single runs, timings not meaningful)" else "");
  let frontier =
    match json with
    | None -> None
    | Some _ -> Some (measure_frontier ~max_n:(if smoke then 48 else 96))
  in
  let estimates = benchmark ~smoke filter in
  match (json, frontier) with
  | Some path, Some frontier ->
      (* smoke keeps the CI lane fast; the full measurement is the one
         checked in as BENCH_efgame.json *)
      write_json ~path ~smoke ~estimates ~frontier
  | _ -> ()
