(* Regenerates every experiment table (E1–E24) of EXPERIMENTS.md.

   Usage:
     experiments.exe            — print all tables to stdout
     experiments.exe --markdown FILE — additionally write the Markdown report
     experiments.exe --quick    — skip the slowest solver experiments
     experiments.exe --frontier N — bound for the exhaustive ≡₃ unary
                                    frontier scan in E2 (default 96; the
                                    checked-in report uses 384)
     experiments.exe --table FILE — warm-start the E2 scan from a
                                    transposition table persisted by
                                    [efgame_cli --frontier N --table FILE];
                                    a warm replay of the checked-in 384
                                    frontier takes seconds instead of hours
     experiments.exe --trace FILE — Chrome trace-event record of the run
                                    (open at ui.perfetto.dev)
     experiments.exe --metrics FILE — dump the merged Obs counter snapshot
     experiments.exe --quiet / -v — progress verbosity on stderr

   An unknown flag, or a flag missing its argument, prints the usage and
   exits 2; --help prints it and exits 0.

   Budgets are chosen so that a full run finishes in a few minutes on a
   laptop; every solver verdict is three-valued, so a blown budget shows up
   as "? (budget)" rather than as a wrong row. *)

open Core

let unary n = String.make n 'a'
let rep = Words.Word.repeat
let vc = Report.verdict_cell
let quick = ref false
let budget = 200_000_000

(* ------------------------------------------------------------------ *)

let e1 () =
  let rows =
    List.map
      (fun i ->
        let w = unary (2 * i) and v = unary ((2 * i) - 1) in
        [
          Printf.sprintf "a^%d vs a^%d" (2 * i) ((2 * i) - 1);
          vc (Equiv.decide w v 2);
          (match Equiv.distinguishing_line w v 2 with
          | Some line ->
              String.concat "; "
                (List.map
                   (fun ((m : Efgame.Game.move), r) ->
                     Format.asprintf "%a→%s" Efgame.Game.pp_move m
                       (match r with Some s when s <> "" -> s | Some _ -> "ε" | None -> "stuck"))
                   line)
          | None -> "-");
        ])
      [ 1; 2; 3; 4 ]
  in
  Report.make ~id:"E1" ~title:"Spoiler wins two rounds on a^2i vs a^2i-1"
    ~paper_ref:"Section 3, example after Def. 3.1"
    ~header:[ "instance"; "solver verdict (expect ≢)"; "a winning Spoiler line" ]
    ~notes:[ "The line shows the first p.i.-preserving Duplicator reply the solver explored." ]
    rows

let frontier_bound = ref 96
let frontier_table = ref None

(* what E2's ≡₃ row actually established, for the report preamble *)
let e2_summary = ref ""

let e2 () =
  let cache = Efgame.Cache.create () in
  let table_note =
    match !frontier_table with
    | None -> ""
    | Some path -> (
        if not (Sys.file_exists path) then
          Printf.sprintf "; table %s absent, cold scan" (Filename.basename path)
        else
          match Efgame.Persist.recover ~salvage:true cache path with
          | Ok (src, r) when r.Efgame.Persist.salvaged ->
              Printf.sprintf
                "; warm-started from %d verdicts salvaged out of %s"
                r.Efgame.Persist.entries (Filename.basename src)
          | Ok (_, r) ->
              Printf.sprintf "; warm-started from %d persisted verdicts"
                r.Efgame.Persist.entries
          | Error e ->
              Obs.Log.warn ~tag:"e2" "ignoring table %s: %a" path
                Efgame.Persist.pp_error e;
              "; table rejected, cold scan")
  in
  let engine = Efgame.Witness.Cached cache in
  (* SIGINT/SIGTERM wind the scan down at pair granularity; the state
     checkpoints to --table (when given) before the conventional
     128+signo exit, so an interrupted regeneration is resumable *)
  let stop () = Rt.Signal.pending () <> None in
  let checkpoint_and_quit src =
    (match !frontier_table with
    | Some path -> (
        match
          Rt.Backoff.retry
            ~on_retry:(fun ~attempt ~delay ->
              Obs.Log.warn ~tag:"e2"
                "checkpoint failed; attempt %d after %.2fs backoff" attempt
                delay)
            (fun () -> Efgame.Persist.save cache path)
        with
        | Ok n ->
            Obs.Log.warn ~tag:"e2" "%s: checkpointed %d entries -> %s"
              (Rt.Signal.name src) n path
        | Error e ->
            Obs.Log.err ~tag:"e2" "%s: checkpoint failed for good: %a"
              (Rt.Signal.name src) Efgame.Persist.pp_error e)
    | None -> ());
    exit (Rt.Signal.exit_code src)
  in
  let scan ?on_q k max_n =
    match
      fst (Efgame.Witness.scan ~budget ~engine ?on_q ~stop ~k ~max_n ())
    with
    | Efgame.Witness.Interrupted _ as o -> (
        match Rt.Signal.pending () with
        | Some src -> checkpoint_and_quit src
        | None -> o)
    | o -> o
  in
  let cell = function
    | Efgame.Witness.Found (p, q) -> Printf.sprintf "(%d, %d)" p q
    | Efgame.Witness.Exhausted n ->
        Printf.sprintf "none with q ≤ %d (exhaustive, all pairs)" n
    | Efgame.Witness.Inconclusive (n, _) -> Printf.sprintf "inconclusive ≤ %d (budget)" n
    | Efgame.Witness.Interrupted _ -> "interrupted"
  in
  (* under work stealing q values can be skipped, so report on crossing
     each 32-boundary rather than on exact multiples *)
  let last_q = ref 0 in
  let on_q q =
    if q / 32 > !last_q / 32 then begin
      last_q := q;
      Obs.Log.info ~tag:"e2" "≡₃ frontier scan: q = %d" q
    end
  in
  let k3 = if !quick then None else Some (scan ~on_q 3 !frontier_bound) in
  e2_summary :=
    (match k3 with
    | None -> "skipped the ≡₃ frontier scan in\nthis run (--quick)"
    | Some (Efgame.Witness.Exhausted n) ->
        Printf.sprintf
          "scans the ≡₃ frontier\nexhaustively: no pair a^p ≡₃ a^q with q ≤ %d exists" n
    | Some (Efgame.Witness.Found (p, q)) ->
        Printf.sprintf
          "scans the ≡₃ frontier\nexhaustively: the minimal ≡₃ pair is (%d, %d)" p q
    | Some o -> "scans the ≡₃ frontier:\n" ^ cell o);
  let rows =
    [
      [ "0"; cell (scan 0 3); "verified by solver" ];
      [ "1"; cell (scan 1 6); "verified by solver" ];
      [ "2"; cell (scan 2 14); "verified by solver" ];
      [
        "3";
        (match k3 with None -> "(skipped in --quick)" | Some o -> cell o);
        Printf.sprintf
          "work-stealing scan, transposition-table engine, ≡_j prefilter; \
           bound set by --frontier (here %d)%s"
          !frontier_bound table_note;
      ];
    ]
  in
  let classes_cell k max_n =
    match Efgame.Witness.classes ~budget ~k ~max_n () with
    | Some classes ->
        Printf.sprintf "%d classes of a^0..a^%d: %s" (List.length classes) max_n
          (String.concat " "
             (List.map
                (fun members ->
                  "{" ^ String.concat "," (List.map string_of_int members) ^ "}")
                classes))
    | None -> "budget exhausted"
  in
  let rows = rows @ [ [ "≡₁ structure"; classes_cell 1 8; "full class decomposition" ];
                      [ "≡₂ structure"; classes_cell 2 16; "threshold 12, then parity" ] ] in
  Report.make ~id:"E2" ~title:"Minimal unary pairs p < q with a^p ≡_k a^q"
    ~paper_ref:"Lemma 3.4"
    ~header:[ "k"; "minimal pair"; "provenance" ]
    ~notes:
      [
        "Lemma 3.4 guarantees pairs exist for every k, but non-constructively (via \
         semi-linearity). The ≡₃ frontier grows like the FO(+) thresholds: Spoiler's \
         3-round attacks combine the difference element, midpoints, and ±1 steps through \
         the letter constant.";
        "The ≡₃ scan is exhaustive over all pairs 0 ≤ p < q ≤ bound (the seed's offline \
         scans covered only the gap families 2·d, 16, 32, 64, 128 up to 320): every skip \
         is justified by an exact lower-round refutation, and every surviving pair gets a \
         full 3-round search on the memoized solver engine.";
      ]
    rows

let e3 () =
  let p, q = (12, 14) in
  let wbw n m = unary n ^ "b" ^ unary m in
  let member w = Fc.Eval.language_member ~sigma:[ 'a'; 'b' ] Fc.Builders.vbv w in
  let rows =
    [
      [ "a^12 ≡₂ a^14"; vc (Equiv.decide (unary p) (unary q) 2) ];
      [ "b·a^12 ≡₂ b·a^12"; vc (Equiv.decide ("b" ^ unary p) ("b" ^ unary p) 2) ];
      [
        Printf.sprintf "φ (qr 5) accepts a^%d b a^%d" p p;
        Report.bool_cell (member (wbw p p));
      ];
      [
        Printf.sprintf "φ (qr 5) accepts a^%d b a^%d" q p;
        Report.bool_cell (member (wbw q p));
      ];
      [
        "a^12·b·a^12 ≡₂ a^14·b·a^12 (direct solver)";
        vc (if !quick then Efgame.Game.Unknown else Equiv.decide (wbw p p) (wbw q p) 2);
      ];
    ]
  in
  Report.make ~id:"E3" ~title:"≡_k is not a congruence"
    ~paper_ref:"Proposition 3.5"
    ~header:[ "check"; "result" ]
    ~notes:
      [
        "The paper's distinguishing sentence φ for { v·b·v } separates the concatenations at \
         quantifier rank 5; the direct solver row shows they already separate at k = 2.";
      ]
    rows

let e4 () =
  let member w = Fc.Eval.language_member ~sigma:[ 'a'; 'b'; 'c' ] Fc.Builders.fib w in
  let member_rows =
    List.map
      (fun n ->
        let w = Words.Fibonacci.l_fib_word n in
        [ Printf.sprintf "n = %d (length %d)" n (String.length w);
          Report.bool_cell (member w); "member" ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let non_member_rows =
    List.map
      (fun w -> [ (if w = "" then "ε" else w); Report.bool_cell (member w); "non-member" ])
      [ ""; "cc"; "cacabcab"; "cacabcabc"; "cacabcabacabac" ]
  in
  let cube_rows =
    [
      [
        "F_ω prefix of length 200 has a 4th power";
        Report.bool_cell (Words.Fibonacci.has_fourth_power (Words.Fibonacci.prefix 200));
        "expected no (Karhumäki)";
      ];
    ]
  in
  Report.make ~id:"E4" ~title:"L_fib is FC-definable; φ_fib model-checked"
    ~paper_ref:"Proposition 3.3 (+ Appendix B)"
    ~header:[ "word"; "φ_fib accepts"; "expected" ]
    ~notes:
      [
        "The appendix construction excludes the two shortest members (its φ_struc forces the \
         prefix c·a·c·ab·c and forbids cc); our φ_fib restores them as explicit disjuncts.";
      ]
    (member_rows @ non_member_rows @ cube_rows)

let e5_e6 () =
  let cfg = Efgame.Game.make (unary 12) (unary 14) in
  let strat = Efgame.Strategies.solver_backed cfg ~total_rounds:2 in
  let forced =
    List.map
      (fun e ->
        let reply = strat cfg [] { Efgame.Game.side = Efgame.Game.Left; element = e } in
        [
          Printf.sprintf "short move %s" (if e = "" then "ε" else e);
          Printf.sprintf "reply %s" (if reply = "" then "ε" else reply);
          Report.bool_cell (reply = e);
        ])
      [ "a"; "aa" ]
  in
  (* failure injection: a strategy that maps the whole-word prefix to a
     non-prefix must be caught by exhaustive validation *)
  let bad : Efgame.Strategy.t =
   fun cfg' history (m : Efgame.Game.move) ->
    if m.Efgame.Game.element = unary 12 then unary 13 (* non-mirror, non-prefix-consistent *)
    else Efgame.Strategies.solver_backed_maximin cfg ~cap:3 cfg' history m
  in
  let injected =
    match Efgame.Strategy.validate cfg ~k:2 bad with
    | Error _ -> "violation caught by the validator"
    | Ok () -> "NOT caught (unexpected)"
  in
  Report.make ~id:"E5/E6" ~title:"Forced responses on short factors; failure injection"
    ~paper_ref:"Lemmas 4.1 and 4.2"
    ~header:[ "probe"; "observation"; "identical?" ]
    ~notes:
      [
        "Lemma 4.1: elements short relative to the remaining rounds force identical replies — \
         the certified solver strategy exhibits exactly that.";
        Printf.sprintf
          "Lemma 4.2 (prefix/suffix preservation) via failure injection: replacing the reply \
           to the whole word a^12 by a^13 → %s." injected;
      ]
    forced

let e7 () =
  let instance w1 w2 v1 v2 k =
    let inst = { Pseudo_congruence.w1; w2; v1; v2 } in
    let prem = Pseudo_congruence.premises inst in
    let needed = Pseudo_congruence.required_rounds inst ~k in
    let p1, p2 = Pseudo_congruence.premise_verdicts ~budget inst ~rounds:(min needed 2) in
    [
      Printf.sprintf "%s·%s vs %s·%s" w1 w2 v1 v2;
      string_of_int k;
      Report.bool_cell prem.Pseudo_congruence.common_factors_agree;
      string_of_int prem.Pseudo_congruence.r;
      Printf.sprintf "needs ≡_%d; at ≡_%d: %s / %s" needed (min needed 2) (vc p1) (vc p2);
      vc (Pseudo_congruence.conclusion ~budget inst ~k);
      Report.result_cell (Pseudo_congruence.certify inst ~k);
    ]
  in
  let rows =
    [
      instance (unary 3) "bb" (unary 4) "bb" 1;
      instance (unary 3) (rep "ba" 3) (unary 4) (rep "ba" 3) 1;
      instance (unary 12) "bbb" (unary 14) "bbb" (if !quick then 1 else 2);
    ]
  in
  Report.make ~id:"E7" ~title:"Pseudo-Congruence Lemma: instances and strategy certification"
    ~paper_ref:"Lemma 4.3 (Figures 1 and 3)"
    ~header:
      [ "instance"; "k"; "common facs agree"; "r"; "premises"; "conclusion ≡_k"; "composed strategy" ]
    ~notes:
      [
        "The lemma's premise needs ≡_{k+r+2}, which for k ≥ 1 lies beyond the decidable unary \
         frontier; the table shows the premises at the verifiable round count and certifies \
         the composed Duplicator strategy (Figure 1's border-splitting) exhaustively at k.";
      ]
    rows

let e8_e14 () =
  let witness_row k (l : Langs.t) =
    match Langs.find_witness ~budget l ~k with
    | Some w ->
        [
          l.Langs.name;
          string_of_int k;
          w.Langs.inside;
          w.Langs.outside;
          vc w.Langs.verdict;
        ]
    | None -> [ l.Langs.name; string_of_int k; "-"; "-"; "no certified pair in candidate set" ]
  in
  let k1 = List.map (witness_row 1) (Langs.paper_languages @ [ Langs.anbn; Langs.a_le_b ]) in
  let k2 =
    if !quick then []
    else List.map (witness_row 2) [ Langs.anbn; Langs.l3; Langs.l4 ]
  in
  Report.make ~id:"E8/E9/E14" ~title:"Languages not expressible in FC: certified witness pairs"
    ~paper_ref:"Example 4.4, Prop. 4.5, Lemma 4.14"
    ~header:[ "language"; "k"; "inside ∈ L"; "outside ∉ L"; "inside ≡_k outside" ]
    ~notes:
      [
        "Each row instantiates the proof's construction (e.g. a^p(ba)^p vs a^q(ba)^p) with a \
         unary pair the solver certifies; by Lemma 3.1 a single ≡_k pair rules out every FC \
         sentence of quantifier rank ≤ k, and the paper's lemmas give pairs for every k.";
      ]
    (k1 @ k2)

let e10 () =
  let row base m =
    let power = rep base m in
    let facs = Words.Factors.of_word power in
    let total = ref 0 and ok = ref 0 in
    Words.Factors.iter
      (fun u ->
        if Words.Primitive.exp ~base u > 0 then begin
          incr total;
          match Words.Primitive.factorize_in_power ~base u with
          | Some (u1, e, u2)
            when u1 ^ rep base e ^ u2 = u
                 && String.length u1 < String.length base
                 && String.length u2 < String.length base ->
              incr ok
          | _ -> ()
        end)
      facs;
    [ base; string_of_int m; string_of_int !total; string_of_int !ok ]
  in
  Report.make ~id:"E10" ~title:"Unique factorization of factors of powers"
    ~paper_ref:"Lemma 4.7 (+ Example 4.6)"
    ~header:[ "primitive w"; "m"; "factors with exp_w > 0"; "uniquely factorized" ]
    [ row "ab" 6; row "aab" 5; row "aba" 5; row "abaabb" 4 ]

let e11 () =
  let check_row base p q k =
    let c = Primitive_power.check ~budget ~base ~p ~q ~k () in
    [
      base;
      Printf.sprintf "(%d,%d)" p q;
      string_of_int k;
      vc c.Primitive_power.premise_same_k;
      vc c.Primitive_power.premise_full;
      vc c.Primitive_power.conclusion;
    ]
  in
  let rows =
    [
      check_row "ab" 3 4 1;
      check_row "aab" 3 4 1;
      check_row "aba" 3 4 1;
      check_row "ab" 12 14 1;
    ]
    @ (if !quick then [] else [ check_row "ab" 12 14 2; check_row "aab" 12 14 2 ])
  in
  let cert =
    Report.result_cell (Primitive_power.certify ~base:"ab" ~p:12 ~q:14 ~k:1 ())
  in
  let square =
    match Primitive_power.lift_square ~base:"ab" ~lookup_reply:(unary 9) "babababababababababababa" with
    | Some sq -> Format.asprintf "%a" Primitive_power.pp_square sq
    | None -> "-"
  in
  Report.make ~id:"E11" ~title:"Primitive Power Lemma: premise/conclusion transfer and lifting"
    ~paper_ref:"Lemma 4.8 (Figures 2 and 4)"
    ~header:[ "base w"; "(p,q)"; "k"; "a^p ≡_k a^q"; "a^p ≡_{k+3} a^q"; "w^p ≡_k w^q" ]
    ~notes:
      [
        Printf.sprintf
          "Lifted strategy certification at k = 1, (p,q) = (12,14), base ab: %s." cert;
        Printf.sprintf "A Figure-2/4 square for Spoiler's move (ba)^12 ⊑ (ab)^14: %s." square;
        "At k = 2 the lift from a merely-≡₂ unary pair fails exhaustive validation (see the \
         test suite's 'k=2 lift needs the +3 premise'), demonstrating that the lemma's \
         ≡_{k+3} slack is essential, not an artifact of the proof.";
        "The same-k columns show the empirical transfer is even stronger than the lemma's \
         k+3 → k guarantee on these instances.";
      ]
    rows

let e12 () =
  let row (w, v) =
    let conj = Words.Conjugacy.are_conjugate w v in
    let coprim = Words.Conjugacy.are_co_primitive w v in
    let stab =
      match Words.Conjugacy.common_factor_stabilization w v ~max_exp:5 with
      | Some (n0, m0, common) ->
          Printf.sprintf "stabilizes at (%d,%d), r = %d" n0 m0
            (List.fold_left (fun m f -> max m (String.length f)) 0 common)
      | None -> "keeps growing"
    in
    [
      Printf.sprintf "(%s, %s)" w v;
      Report.bool_cell (Words.Primitive.is_primitive w && Words.Primitive.is_primitive v);
      Report.bool_cell conj;
      Report.bool_cell coprim;
      stab;
      string_of_int (Words.Conjugacy.periodicity_common_factor_bound w v);
    ]
  in
  Report.make ~id:"E12" ~title:"Co-primitivity ⇔ factor-intersection stabilization"
    ~paper_ref:"Prop. 4.9, Lemma 4.10, the periodicity lemma"
    ~header:[ "pair"; "both primitive"; "conjugate"; "co-primitive"; "Facs(w^n) ∩ Facs(v^m)"; "|w|+|v|-1" ]
    [ row ("aabba", "aaabb"); row ("aba", "bba"); row ("abaabb", "bbaaba"); row ("ab", "ba") ]

let e13 () =
  let run inst name (p, q) k =
    let fp = Fooling.fool ~budget inst ~k ~p ~q in
    [
      name;
      Printf.sprintf "(%d,%d)" p q;
      string_of_int k;
      Printf.sprintf "|inside| = %d" (String.length fp.Fooling.inside);
      Printf.sprintf "s = %d, t = %d (f(s) = %d ≠ t)" fp.Fooling.s fp.Fooling.t
        (inst.Fooling.f fp.Fooling.s);
      vc fp.Fooling.verdict;
    ]
  in
  let double = Fooling.make ~u:"abaabb" ~v:"bbaaba" ~f:(fun n -> 2 * n) ~f_name:"2n" () in
  let rows =
    [
      run Fooling.l5_instance "L5 (f = id)" (3, 4) 1;
      run double "f(n) = 2n" (3, 4) 1;
    ]
    @ if !quick then [] else [ run Fooling.l5_instance "L5 (f = id)" (12, 14) 1 ]
  in
  Report.make ~id:"E13" ~title:"Fooling Lemma pipeline on co-primitive powers"
    ~paper_ref:"Lemma 4.12, Proposition 4.13"
    ~header:[ "instance"; "(p,q)"; "k"; "size"; "fooling pair"; "inside ≡_k fooled" ]
    ~notes:
      [
        "u = abaabb and v = bbaaba are co-primitive (E12); the fooled word u^q w₂ v^{f(p)} \
         differs from every member yet is ≡_k-indistinguishable from one.";
      ]
    rows

let e15 () =
  let sigma = [ 'a'; 'b' ] in
  let row src =
    let r = Regex_engine.Regex.parse_exn src in
    match Fc.Bounded_compile.of_bounded_regex ~alphabet:sigma r "x" with
    | None -> [ src; "-"; "not decomposable"; "-" ]
    | Some f ->
        let agreements = ref 0 and total = ref 0 in
        List.iter
          (fun doc ->
            let st = Fc.Structure.make ~sigma doc in
            List.iter
              (fun x ->
                incr total;
                if Regex_engine.Regex.matches r x = Fc.Eval.holds ~env:[ ("x", x) ] st f then
                  incr agreements)
              (Fc.Structure.universe st))
          (Words.Word.enumerate ~alphabet:sigma ~max_len:5);
        [
          src;
          string_of_int (Fc.Formula.size f);
          Printf.sprintf "%d/%d factor checks agree" !agreements !total;
          Report.bool_cell (Fc.Formula.is_pure_fc f);
        ]
  in
  let slip =
    (* the paper's φ_{w*} as printed, for w = aa: accepts aaa *)
    let t = Fc.Term.var in
    let paper_form =
      Fc.Formula.Or
        ( Fc.Formula.eq2 (t "x") Fc.Term.Eps,
          Fc.Formula.Exists
            ( "z",
              Fc.Formula.And
                ( Fc.Formula.eq_concat (t "x") [ Fc.Term.Const 'a'; Fc.Term.Const 'a'; t "z" ],
                  Fc.Formula.eq_concat (t "x") [ t "z"; Fc.Term.Const 'a'; Fc.Term.Const 'a' ] ) ) )
    in
    let st = Fc.Structure.make "aaaa" in
    Printf.sprintf
      "Claim C.2's φ_{(aa)*} as printed accepts aaa: %b (our corrected builder rejects it: %b)"
      (Fc.Eval.holds ~env:[ ("x", "aaa") ] st paper_form)
      (not (Fc.Eval.holds ~env:[ ("x", "aaa") ] st (Fc.Builders.word_star "aa" "x")))
  in
  Report.make ~id:"E15" ~title:"Bounded regular constraints compile to pure FC"
    ~paper_ref:"Lemma 5.3, Claim C.2"
    ~header:[ "constraint γ"; "compiled size"; "agreement (all docs ≤ 5, all factors)"; "pure FC" ]
    ~notes:
      [
        slip;
        "Compilation covers finite languages, unions, concatenations, w*, and commutative \
         stars (recovered as semi-linear exponent sets via the DFA engine).";
      ]
    [ row "(ab)*"; row "a*b*"; row "a*(ba)*"; row "ab|ba|%e"; row "b(aa)*b|a*"; row "(aa|aaa)*"; row "(a|b)*" ]

let e16 () =
  let row (red : Relations.reduction) =
    let ok, count = Relations.agreement_up_to red ~max_len:(if !quick then 6 else 9) in
    [
      red.Relations.relation.Spanner.Selectable.name;
      red.Relations.target.Langs.name;
      Printf.sprintf "%s on %d words" (if ok then "L(ψ) = L" else "MISMATCH") count;
      (if red.Relations.note = "" then "-" else red.Relations.note);
    ]
  in
  Report.make ~id:"E16" ~title:"Theorem 5.5 reductions executed on the spanner engine"
    ~paper_ref:"Theorem 5.5 (+ Appendix G)"
    ~header:[ "relation R"; "target language"; "agreement"; "deviation from the paper" ]
    ~notes:
      [
        "Each ψ_R runs R as a ζ^R selection over a regex-formula decomposition; since its \
         language is a bounded non-FC language (E8/E14) and bounded languages transfer from \
         FC[REG] to FC (E15), no generalized core spanner can express R.";
      ]
    (List.map row Relations.all)

let e17 () =
  let evens = Semilinear.Set.arithmetic ~start:0 ~step:2 in
  let fc_even = Fc.Builders.whole_word_exists (Fc.Builders.word_star "aa" "_w") "_w" in
  let agree = ref true in
  for n = 0 to 40 do
    let w = unary n in
    if
      Fc.Eval.language_member ~sigma:[ 'a' ] fc_even w
      <> Semilinear.Set.mem evens n
    then agree := false
  done;
  let pow_refuted =
    Semilinear.Set.refutes_ultimate_periodicity (Semilinear.Unary.powers_of_two ~bound:0)
      ~bound:150
  in
  let reconstruction =
    match
      Semilinear.Unary.semilinear_of_predicate
        (fun w ->
          Fc.Eval.language_member ~sigma:[ 'a' ] fc_even w)
        'a' ~bound:60
    with
    | Some s -> Format.asprintf "recovered %a" Semilinear.Set.pp s
    | None -> "not recovered"
  in
  Report.make ~id:"E17" ~title:"Over a unary alphabet, FC = semi-linear"
    ~paper_ref:"Section 3 (Ginsburg–Spanier; Freydenberger–Peterfreund)"
    ~header:[ "check"; "result" ]
    [
      [ "FC sentence (aa)* agrees with the semi-linear evens on a^0..a^40"; Report.bool_cell !agree ];
      [ "semi-linear structure recovered from the FC predicate"; reconstruction ];
      [ "L_pow = {a^(2^n)} refutes ultimate periodicity up to 150"; Report.bool_cell pow_refuted ];
      [
        "Presburger (x ≥ 2 ∧ x ≢ 0 mod 3) normalizes to an equal semi-linear set";
        (let f =
           Semilinear.Presburger.And
             (Semilinear.Presburger.Geq 2, Semilinear.Presburger.Not (Semilinear.Presburger.Mod (0, 3)))
         in
         let s = Semilinear.Presburger.to_semilinear f in
         Report.bool_cell
           (List.for_all
              (fun n -> Semilinear.Presburger.sat f n = Semilinear.Set.mem s n)
              (List.init 100 Fun.id)));
      ];
    ]

let e18 () =
  let doc = "xxacheiveyybeginingzzacheive" in
  let f = Spanner.Regex_formula.parse_exn "x{acheive|begining}" in
  let hits = Spanner.Regex_formula.matches_anywhere f doc in
  let eq_halves =
    Spanner.Algebra.Select_eq
      ("x", "y", Spanner.Algebra.Extract (Spanner.Regex_formula.parse_exn "x{(a|b)+}y{(a|b)+}"))
  in
  let halves_doc = "abaaba" in
  let spanner_rel =
    Spanner.Algebra.selected_words eq_halves ~vars:[ "x"; "y" ] halves_doc
  in
  let fc_rel =
    let t = Fc.Term.var in
    let form =
      Fc.Formula.conj
        [
          Fc.Builders.universe "_u";
          Fc.Formula.eq (t "_u") (t "x") (t "y");
          Fc.Formula.eq2 (t "x") (t "y");
        ]
    in
    Fc.Eval.relation (Fc.Structure.make halves_doc)
      (Fc.Formula.Exists ("_u", form))
      ~vars:[ "x"; "y" ]
  in
  Report.make ~id:"E18" ~title:"Spanner engine: extraction, ζ^=, FC cross-check"
    ~paper_ref:"Section 1 (motivating scenario), Section 5"
    ~header:[ "check"; "result" ]
    [
      [
        "misspelling occurrences extracted";
        string_of_int (Spanner.Relation.cardinality hits);
      ];
      [
        Printf.sprintf "ζ^= equal halves of %s (spanner)" halves_doc;
        String.concat "; " (List.map (String.concat ",") spanner_rel);
      ];
      [
        "same relation defined in FC (x = y ∧ 𝔲 = x·y)";
        String.concat "; " (List.map (String.concat ",") fc_rel);
      ];
      [
        "spanner and FC agree";
        Report.bool_cell (spanner_rel = fc_rel);
      ];
    ]

let e19 () =
  let unary' = unary in
  let row w v k =
    [
      Printf.sprintf "%s into %s" w v;
      string_of_int k;
      vc (Efgame.Existential.equiv w v k);
      vc (Efgame.Game.equiv w v k);
    ]
  in
  Report.make ~id:"E19" ~title:"Existential EF games (one-sided Spoiler)"
    ~paper_ref:"Conclusions (future work: games for core spanners)"
    ~header:[ "instance"; "k"; "existential ⇛_k"; "full ≡_k" ]
    ~notes:
      [
        "The existential game preserves existential-positive FC sentences from left to          right; it is strictly weaker than the full game (compare the a³/a⁵ rows) and          asymmetric (a⁵ into a³ fails once Spoiler can pin an a·a·a·a chain).";
      ]
    [
      row (unary' 3) (unary' 5) 2;
      row (unary' 5) (unary' 3) 2;
      row (unary' 5) (unary' 3) 3;
      row (unary' 3) (unary' 4) 1;
      row "ab" "aabb" 1;
    ]

let e20 () =
  let row w v pebbles rounds =
    let pv, plain =
      Efgame.Pebble.compare_with_unrestricted ~budget ~pebbles ~rounds w v
    in
    [ Printf.sprintf "%s vs %s" w v; string_of_int pebbles; string_of_int rounds; vc pv; vc plain ]
  in
  Report.make ~id:"E20" ~title:"k-pebble games (finite-variable FC)"
    ~paper_ref:"Conclusions (future work: pebble games, Libkin Ch. 11)"
    ~header:[ "instance"; "pebbles"; "rounds"; "pebble verdict"; "plain verdict" ]
    ~notes:
      [
        "With pebbles ≥ rounds the two games coincide; with one pebble Spoiler can never          relate two of his own moves, so a³ vs a⁴ survives arbitrarily many rounds while          the plain 2-round game separates them — a finite-variable/quantifier-depth          trade-off in action.";
      ]
    [
      row (unary 3) (unary 4) 1 2;
      row (unary 3) (unary 4) 2 2;
      row (unary 2) (unary 3) 1 1;
      row "abab" "baba" 2 2;
    ]

let e21 () =
  let words = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:7 in
  let compare_pair name fo fc =
    let disagreements =
      List.filter
        (fun w ->
          Fc.Fo_eq.language_member fo w <> Fc.Eval.language_member ~sigma:[ 'a'; 'b' ] fc w)
        words
    in
    [
      name;
      string_of_int (List.length words);
      (if disagreements = [] then "agree everywhere"
       else Printf.sprintf "%d disagreements" (List.length disagreements));
    ]
  in
  Report.make ~id:"E21" ~title:"FO[EQ] vs FC: the two equal-power logics executed side by side"
    ~paper_ref:"Related work / Issues with Standard Techniques (Freydenberger–Peterfreund's FO[EQ])"
    ~header:[ "language"; "words checked"; "result" ]
    ~notes:
      [
        "FO[EQ] is the position logic with a built-in factor-equality relation through          which the earlier Feferman-Vaught proof ran; FC is the factor logic this paper          plays games on. Both implementations accept the same words on these languages,          as the equal-expressive-power theorem predicts.";
      ]
    [
      compare_pair "{uu} (squares)" Fc.Fo_eq.ww Fc.Builders.ww;
      compare_pair "cube-free words" Fc.Fo_eq.cube_free Fc.Builders.cube_free;
    ]

let e22 () =
  let row src =
    let rf = Spanner.Regex_formula.parse_exn src in
    match Spanner.To_fc.compile rf with
    | None -> [ src; "-"; "outside the sequential fragment" ]
    | Some phi ->
        let vars = Spanner.Regex_formula.vars rf in
        let docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:5 in
        let agree =
          List.for_all
            (fun doc ->
              Spanner.Algebra.selected_words (Spanner.Algebra.Extract rf) ~vars doc
              = Fc.Eval.relation (Fc.Structure.make ~sigma:[ 'a'; 'b' ] doc) phi ~vars)
            docs
        in
        [
          src;
          string_of_int (Fc.Formula.size phi);
          Printf.sprintf "%s on %d documents" (if agree then "relations agree" else "MISMATCH")
            (List.length docs);
        ]
  in
  Report.make ~id:"E22" ~title:"Spanners compiled to FC[REG] (the capture direction)"
    ~paper_ref:"Section 5 (FC[REG] ≡ generalized core spanners)"
    ~header:[ "regex formula"; "FC size"; "agreement" ]
    ~notes:
      [
        "The paper uses Freydenberger–Peterfreund's equivalence as a black box; this          compiler realizes the spanner→FC[REG] direction for sequential regex formulas          and the positive algebra, with relation-level agreement checked exhaustively.";
        "ζ^R and difference are deliberately not compiled: ζ^R is what Theorem 5.5 rules          out, and difference requires the full simulation of Freydenberger–Peterfreund.";
      ]
    [ row "x{a*}y{b*}"; row "a*x{(ab)*}b*"; row "x{a y{b*} a}"; row "x{a*}y{(ba)*}z{b*}"; row "(x{a})*b" ]

let e23 () =
  let row (arg : Closure.argument) =
    let ok, count = Closure.check arg ~max_len:10 in
    [
      arg.Closure.description;
      Printf.sprintf "%d words" count;
      Report.bool_cell ok;
    ]
  in
  Report.make ~id:"E23" ~title:"Closure under regular intersection: lifting beyond bounded languages"
    ~paper_ref:"Conclusions (the |w|_a = |w|_b example)"
    ~header:[ "argument"; "checked"; "L ∩ R = target" ]
    ~notes:
      [
        "FC[REG] is closed under ∩ with regular languages, so a non-bounded L whose window          intersection is a certified non-FC bounded language cannot be FC[REG]-definable          either — the conclusion's recipe, here run on two instances.";
      ]
    [ row Closure.balanced_ab; row Closure.scattered_prefix ]

let e24 () =
  let rf = Spanner.Regex_formula.parse_exn in
  let docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:4 in
  let agreement expr =
    match Spanner.Vset_algebra.of_algebra expr with
    | None -> "not regular"
    | Some va ->
        if
          List.for_all
            (fun doc ->
              Spanner.Relation.equal (Spanner.Vset_automaton.eval va doc)
                (Spanner.Algebra.eval expr doc))
            docs
        then Printf.sprintf "agrees on %d documents (%d automaton states)" (List.length docs)
               (Spanner.Vset_automaton.states va)
        else "MISMATCH"
  in
  let zeta_rec =
    let r =
      Spanner.Vset_algebra.Recognizable.product
        [ Regex_engine.Regex.parse_exn "a*"; Regex_engine.Regex.parse_exn "(ba)*" ]
    in
    let oracle =
      Spanner.Selectable.make ~name:"rec" ~arity:2 (fun t ->
          Spanner.Vset_algebra.Recognizable.holds r t)
    in
    let base = Spanner.Algebra.Extract (rf "x{(a|b)*}y{(a|b)*}") in
    let via_joins = Spanner.Vset_algebra.Recognizable.selection r [ "x"; "y" ] base in
    let via_zeta = Spanner.Algebra.Select_rel (oracle, [ "x"; "y" ], base) in
    List.for_all
      (fun doc ->
        Spanner.Relation.equal (Spanner.Algebra.eval via_joins doc)
          (Spanner.Algebra.eval via_zeta doc))
      docs
  in
  Report.make ~id:"E24" ~title:"Regular spanners as vset-automata; recognizable ζ^R is free"
    ~paper_ref:"Related work (Fagin et al.: regular spanners ≤ recognizable relations)"
    ~header:[ "check"; "result" ]
    ~notes:
      [
        "Recognizable relations (finite unions of regular products) cost nothing: their ζ^R          desugars to joins with Σ*·x{γ}·Σ* extractions. The relations of Theorem 5.5 are          exactly the ones for which no such desugaring — nor any generalized-core one — can          exist.";
      ]
    [
      [ "π(∪) of two extractions compiled to one automaton";
        agreement
          (Spanner.Algebra.Project
             ( [ "x" ],
               Spanner.Algebra.Union
                 (Spanner.Algebra.Extract (rf "x{a*}y{b*}"), Spanner.Algebra.Extract (rf "x{b*}y{a*}"))
             )) ];
      [ "⋈ with a shared variable compiled to one automaton";
        agreement
          (Spanner.Algebra.Join
             (Spanner.Algebra.Extract (rf "x{a*}(a|b)*"), Spanner.Algebra.Extract (rf "x{a*}b*"))) ];
      [ "ζ^{a* × (ba)*} via joins = ζ^R oracle"; Report.bool_cell zeta_rec ];
    ]

(* ------------------------------------------------------------------ *)

let all_tables () =
  [
    e1 (); e2 (); e3 (); e4 (); e5_e6 (); e7 (); e8_e14 (); e10 (); e11 ();
    e12 (); e13 (); e15 (); e16 (); e17 (); e18 (); e19 (); e20 (); e21 (); e22 (); e23 (); e24 ();
  ]

let preamble () =
  "# EXPERIMENTS — paper artifacts vs. measured results\n\n\
   Regenerated by `dune exec bin/experiments.exe -- --markdown EXPERIMENTS.md`.\n\n\
   The paper (Thompson & Freydenberger, PODS 2024) is proof-theoretic: it has no\n\
   empirical tables or data figures. Following DESIGN.md, every lemma,\n\
   proposition, example and strategy figure is reproduced as a machine-checked\n\
   experiment: the exhaustive EF-game solver provides ground truth (three-valued,\n\
   budget-aware), the paper's proof constructions run as executable Duplicator\n\
   strategies validated against every Spoiler play, and the FC model checker and\n\
   spanner engine execute the formulas and reductions verbatim.\n\n\
   Summary of paper-vs-measured: every checked instance of every lemma holds.\n\
   Three presentation-level slips in the paper's appendix were found and\n\
   corrected (they do not affect any theorem): Claim C.2's φ_{w*} formula is\n\
   only correct for primitive w (E15); Prop. 3.3's φ_struc excludes the two\n\
   shortest members of L_fib (E4); Theorem 5.5's ψ₂/ψ₆ need a⁺ and a z ∈ (ab)*\n\
   constraint respectively (E16). One genuinely new empirical datum: the minimal\n\
   unary witness pairs are (3,4) for ≡₁ and (12,14) for ≡₂, and the\n\
   work-stealing solver engine (persisted-table scans, ≡_j prefilter) "
  ^ !e2_summary
  ^ " (E2). The k = 2 failure of the\n\
   primitive-power lift from a weak premise (E11) shows the lemma's +3 slack is\n\
   essential.\n\n"

let usage =
  "usage: experiments.exe [--quick] [--markdown FILE] [--frontier N]\n\
  \                       [--table FILE] [--trace FILE] [--metrics FILE]\n\
  \                       [--quiet | -q] [-v | --verbose]"

let () =
  let markdown = ref None in
  let quiet = ref false and verbosity = ref 0 in
  let args = Array.to_list Sys.argv in
  (* outputs are written after every experiment has run: refuse an
     unwritable path before any work *)
  let output flag file =
    match Obs.Jsonw.writable file with
    | Ok () -> file
    | Error why ->
        Obs.Log.err "experiments: %s: cannot write %s: %s" flag file why;
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--markdown" :: file :: rest ->
        markdown := Some (output "--markdown" file);
        parse rest
    | "--frontier" :: n :: rest ->
        (match int_of_string_opt n with
        | Some b when b >= 0 -> frontier_bound := b
        | _ ->
            Obs.Log.err
              "experiments: --frontier expects a non-negative integer, got %S"
              n;
            exit 2);
        parse rest
    | "--table" :: file :: rest ->
        frontier_table := Some file;
        parse rest
    | "--trace" :: file :: rest ->
        Obs.Trace.start ~path:(output "--trace" file) ();
        at_exit Obs.Trace.finish;
        parse rest
    | "--metrics" :: file :: rest ->
        let file = output "--metrics" file in
        Obs.Metrics.enable ();
        at_exit (fun () -> Obs.Metrics.dump ~path:file);
        parse rest
    | ("--quiet" | "-q") :: rest ->
        quiet := true;
        parse rest
    | ("-v" | "--verbose") :: rest ->
        incr verbosity;
        parse rest
    | ("-h" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ ->
        let what =
          match arg with
          | "--markdown" | "--frontier" | "--table" | "--trace" | "--metrics" ->
              Printf.sprintf "%s expects an argument" arg
          | _ -> Printf.sprintf "unknown argument %S" arg
        in
        Obs.Log.err "experiments: %s" what;
        prerr_endline usage;
        exit 2
  in
  parse (List.tl args);
  Obs.Log.setup ~quiet:!quiet ~verbosity:!verbosity ();
  Rt.Signal.install ();
  let tables = all_tables () in
  List.iter (fun t -> Format.printf "%a@.@." Report.pp t) tables;
  match !markdown with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (preamble ());
      List.iter (fun t -> output_string oc (Report.to_markdown t)) tables;
      close_out oc;
      Format.printf "wrote %s@." file
