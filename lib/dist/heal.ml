(* Automatic quarantine repair: re-solve a quarantined shard's window
   from scratch — fresh caches, escalated budgets — and either clear
   the quarantine with a re-certified table or narrow it to the
   irreducible sub-windows that still refuse to solve.

   The repair loop is divide-and-conquer: solve the whole window; on
   failure split it in half and recurse, doubling the budget escalation
   with each level, until sub-windows either solve or reach a single
   pair that still fails (terminally poisoned — a genuine budget body,
   not transient damage). {!split_tiles} is the pure skeleton of that
   recursion, exposed so the re-tiling invariant (the leaves partition
   the original window exactly, whatever succeeds or fails) can be
   property-tested without a solver.

   Soundness is the usual argument: sub-window scans are deterministic
   and the blend is the monotone entry-by-entry merge, so a healed
   table contains exactly the verdicts a healthy worker would have
   certified. Re-certification is the worker's own {!Worker.certify}
   with the one sanctioned record overwrite ([~replace:true]): the
   shard is Quarantined, nobody else is racing for it, and the stale
   record (if the quarantine came from a corrupt-table merge) must not
   survive. The quarantine file is deleted only after the new record is
   in place, so a crash mid-heal leaves the shard Quarantined and the
   heal idempotently re-runnable. *)

let m_healed = Obs.Metrics.counter "dist.shards_healed"
let m_still_poisoned = Obs.Metrics.counter "dist.shards_still_poisoned"

type config = {
  dir : string;
  budget : int option;
      (** base per-pair node budget; escalated 2x per split level
          ([None] = solver default at every level) *)
  jobs : int;
  store_depth : int;
  fsync : bool;
  deadline : Rt.Deadline.t;
}

let default_config ~dir =
  {
    dir;
    budget = None;
    jobs = 1;
    store_depth = 0;
    fsync = true;
    deadline = Rt.Deadline.none;
  }

type 'a leaf = { l_lo : int; l_hi : int; l_result : ('a, string) result }

(* The pure split skeleton: [solve ~depth lo hi] either solves a
   window or explains why not; a failed window of more than one pair
   splits at the midpoint and both halves recurse one level deeper.
   The returned leaves always tile [lo, hi) exactly, in order —
   the property the qcheck test pins down. *)
let split_tiles ~solve lo hi =
  let rec go ~depth lo hi acc =
    if lo >= hi then acc
    else
      match solve ~depth lo hi with
      | Ok _ as r -> { l_lo = lo; l_hi = hi; l_result = r } :: acc
      | Error _ as r when hi - lo <= 1 ->
          { l_lo = lo; l_hi = hi; l_result = r } :: acc
      | Error _ ->
          let mid = lo + ((hi - lo) / 2) in
          go ~depth:(depth + 1) mid hi (go ~depth:(depth + 1) lo mid acc)
  in
  List.rev (go ~depth:0 lo hi [])

type outcome = {
  entries : int;  (** entries in the re-certified table *)
  splits : int;  (** solved sub-windows (1 = whole window on first try) *)
}

exception Expired

(* quarantine files are written once; narrowing the reason rewrites
   it (delete + rewrite is fine: state stays Quarantined to every
   observer that matters, and the heal owns the shard here) *)
let narrow_quarantine ~cfg ~id detail =
  let st = Store.active () in
  ignore (st.Store.delete (Manifest.quarantine_path cfg.dir id));
  match
    Manifest.quarantine ~dir:cfg.dir ~owner:(Lease.default_owner ()) id
      (Printf.sprintf "irreducible after heal: %s" detail)
  with
  | Ok () -> ()
  | Error msg ->
      Obs.Log.err ~tag:"dist" "cannot rewrite quarantine for shard %d: %s" id
        msg

(* Re-solve one quarantined shard. [Ok (`Healed _)]: quarantine
   cleared, fresh table certified under a replaced record.
   [Ok (`Poisoned leaves)]: some irreducible sub-windows still fail;
   the quarantine is rewritten to name exactly them. [Error _] only on
   a heal-infrastructure failure (deadline, unwritable store) — the
   shard is left Quarantined and the heal can be re-run. *)
let heal ~cfg m (s : Manifest.shard) =
  let id = s.Manifest.id in
  let st = Store.active () in
  if not (st.Store.exists (Manifest.quarantine_path cfg.dir id)) then
    Error (Printf.sprintf "shard %d is not quarantined" id)
  else begin
    let reason =
      Option.value (Manifest.quarantine_reason cfg.dir id) ~default:"(unknown)"
    in
    Obs.Log.info ~tag:"dist" "healing shard %d [%d, %d): quarantined for %s"
      id s.Manifest.lo s.Manifest.hi reason;
    let started = st.Store.now () in
    let solve ~depth lo hi =
      if Rt.Deadline.expired cfg.deadline then raise Expired;
      let cache = Efgame.Cache.create () in
      let engine =
        if cfg.jobs > 1 then Efgame.Witness.Parallel (cache, cfg.jobs)
        else Efgame.Witness.Cached cache
      in
      (* escalate the budget with the split depth: the window that
         exhausted the original budget gets strictly more rope each
         time it is halved, so only a genuinely hard pair stays poisoned *)
      let budget =
        Option.map (fun b -> b * (1 lsl Stdlib.min depth 16)) cfg.budget
      in
      match
        Efgame.Witness.scan ?budget ~engine ~store_depth:cfg.store_depth
          ~range:(lo, hi)
          ~stop:(fun () -> Rt.Deadline.expired cfg.deadline)
          ~k:m.Manifest.k ~max_n:m.Manifest.max_n ()
      with
      | exception Expired -> raise Expired
      | exception e ->
          Error (Printf.sprintf "scan raised: %s" (Printexc.to_string e))
      | Efgame.Witness.Interrupted _, _ -> raise Expired
      | Efgame.Witness.Inconclusive (_, unknowns), _ ->
          Error
            (Printf.sprintf "budget exhausted on %d pair(s)"
               (List.length unknowns))
      | Efgame.Witness.Found (p, q), _ -> Ok (cache, Some (p, q))
      | Efgame.Witness.Exhausted _, _ -> Ok (cache, None)
    in
    match split_tiles ~solve s.Manifest.lo s.Manifest.hi with
    | exception Expired -> Error "heal deadline expired"
    | leaves -> (
        let poisoned =
          List.filter_map
            (fun l ->
              match l.l_result with
              | Error msg -> Some (l.l_lo, l.l_hi, msg)
              | Ok _ -> None)
            leaves
        in
        match poisoned with
        | _ :: _ ->
            (* narrow the quarantine to exactly the irreducible
               sub-windows — the healable remainder is re-solved for
               free next heal, and an operator reading the reason sees
               precisely which pairs are beyond the budget *)
            let detail =
              poisoned
              |> List.map (fun (lo, hi, msg) ->
                     Printf.sprintf "[%d,%d) %s" lo hi msg)
              |> String.concat "; "
            in
            narrow_quarantine ~cfg ~id detail;
            Obs.Metrics.incr m_still_poisoned;
            Obs.Log.warn ~tag:"dist"
              "shard %d still poisoned after heal: %d irreducible \
               sub-window(s): %s"
              id (List.length poisoned) detail;
            Ok (`Poisoned poisoned)
        | [] -> (
            (* every sub-window solved: blend the fresh caches and
               re-certify through the worker's own certify *)
            let into = Efgame.Cache.create () in
            List.iter
              (fun l ->
                match l.l_result with
                | Ok (cache, _) -> Merge.blend ~into cache
                | Error _ -> ())
              leaves;
            let found =
              List.filter_map
                (fun l ->
                  match l.l_result with Ok (_, f) -> f | Error _ -> None)
                leaves
              |> List.sort (fun (p, q) (p', q') -> compare (q, p) (q', p'))
              |> function [] -> None | x :: _ -> Some x
            in
            let outcome =
              match found with
              | Some (p, q) -> Record.Found (p, q)
              | None -> Record.Exhausted
            in
            let wall_ns =
              Int64.of_float (Float.max 0. (st.Store.now () -. started) *. 1e9)
            in
            let certify =
              Worker.certify ~replace:true ~dir:cfg.dir ~fsync:cfg.fsync
                ~owner:(Lease.default_owner ()) ~id ~cache:into ~outcome
                ~table:(Manifest.table_path cfg.dir id) ~table_name:None
                ~wall_ns
            in
            match Rt.Backoff.retry certify with
            | Error msg -> Error msg
            | Ok (`Superseded _) -> Error "record: replace reported a race"
            | Ok (`Certified written) ->
                (* only now is the quarantine lifted: record first, so
                   a crash in between re-runs the heal instead of
                   resurrecting a shard with a stale record *)
                let del p = ignore (st.Store.delete p) in
                del (Manifest.quarantine_path cfg.dir id);
                del (Manifest.retries_path cfg.dir id);
                del (Manifest.spec_table_path cfg.dir id);
                del (Manifest.spec_lease_path cfg.dir id);
                Obs.Metrics.incr m_healed;
                Obs.Log.info ~tag:"dist"
                  "shard %d healed: %d entries re-certified in %d window(s)"
                  id written (List.length leaves);
                Ok (`Healed { entries = written; splits = List.length leaves })
            ))
  end

type fleet = {
  healed : int;
  still_poisoned : int;
  failed : int;  (** heal-infrastructure errors; shards left untouched *)
  per_shard :
    (int * [ `Healed of outcome | `Poisoned of (int * int * string) list | `Error of string ])
    list;
}

(* Heal every quarantined shard in the directory, in id order. Never
   raises; a shard whose heal errors (deadline included) is reported
   and left Quarantined for the next round. *)
let heal_all ~cfg =
  match Manifest.load ~dir:cfg.dir with
  | Error msg -> Error msg
  | Ok m ->
      let results =
        Array.to_list m.Manifest.shards
        |> List.filter_map (fun s ->
               match Manifest.state ~dir:cfg.dir ~ttl:infinity s with
               | Manifest.Quarantined -> (
                   match heal ~cfg m s with
                   | Ok (`Healed o) -> Some (s.Manifest.id, `Healed o)
                   | Ok (`Poisoned p) -> Some (s.Manifest.id, `Poisoned p)
                   | Error msg -> Some (s.Manifest.id, `Error msg))
               | _ -> None)
      in
      let count f = List.length (List.filter f results) in
      Ok
        {
          healed = count (function _, `Healed _ -> true | _ -> false);
          still_poisoned =
            count (function _, `Poisoned _ -> true | _ -> false);
          failed = count (function _, `Error _ -> true | _ -> false);
          per_shard = results;
        }
