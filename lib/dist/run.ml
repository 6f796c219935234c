(* The self-healing convergence controller behind [shard run]: rounds
   of work phase — real worker processes (speculation armed by the
   caller's [spawn]), respawned on death until nothing is Pending or
   Leased — then heal phase, then merge. A shard the merge quarantines
   (torn-record debris after a SIGKILL, a store that lied about a
   write) is simply the next round's heal: there is no second loop. A
   round that moved nothing forward ends the run (irreducible poison or
   a wedged store — respawning forever would not help). *)

type report = {
  rounds : int;
  spawned : int;
  respawns : int;
  healed : int;
  heal_failures : int;
  poisoned : int;
  converged : bool;
  phases : (string * int * float) list;
  merge : (Merge.t, string) result;
}

let converge ?phase_deadline_s ?budget ?(jobs = 1) ~dir ~ttl ~workers ~rounds
    ~out ~spawn (m : Manifest.t) =
  let counts () = Manifest.counts ~dir ~ttl m in
  let busy (c : Manifest.counts) = c.pending + c.leased > 0 in
  let fleet = ref [] and spawned = ref 0 in
  let reap () =
    fleet :=
      List.filter
        (fun pid ->
          try fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0
          with Unix.Unix_error _ -> false)
        !fleet
  in
  let stop_fleet () =
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      !fleet;
    List.iter
      (fun pid ->
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      !fleet;
    fleet := []
  in
  let phase_deadline () =
    Option.fold ~none:Rt.Deadline.none ~some:Rt.Deadline.after phase_deadline_s
  in
  let heal_cfg = { (Heal.default_config ~dir) with budget; jobs = max 1 jobs } in
  let phases = ref [] in
  let timed phase round f =
    let t0 = Unix.gettimeofday () in
    f ();
    phases := (phase, round, Unix.gettimeofday () -. t0) :: !phases
  in
  let healed = ref 0 and heal_failures = ref 0 in
  let interrupted () = Rt.Signal.pending () <> None in
  let work () =
    let deadline = phase_deadline () in
    let rec drive () =
      reap ();
      if busy (counts ()) && not (Rt.Deadline.expired deadline || interrupted ())
      then begin
        while List.length !fleet < workers do
          fleet := spawn () :: !fleet;
          incr spawned
        done;
        Unix.sleepf 0.2;
        drive ()
      end
    in
    drive ();
    stop_fleet ()
  in
  let heal () =
    match Heal.heal_all ~cfg:{ heal_cfg with deadline = phase_deadline () } with
    | Ok f ->
        healed := !healed + f.Heal.healed;
        heal_failures := !heal_failures + f.Heal.failed
    | Error msg ->
        Obs.Log.err ~tag:"run" "heal: %s" msg;
        incr heal_failures
  in
  let rec round_loop round =
    let c0 = counts () in
    if busy c0 then timed "work" round work;
    let c1 = counts () in
    if c1.quarantined > 0 && not (interrupted ()) then timed "heal" round heal;
    let c2 = counts () in
    let merge = Merge.merge ~dir ~out () in
    let c3 = counts () in
    let merge_quarantined = c3.quarantined > c2.quarantined in
    if merge_quarantined then
      Obs.Log.warn ~tag:"run" "merge quarantined %d shard(s); healing next round"
        (c3.quarantined - c2.quarantined);
    let progressed =
      merge_quarantined || c2.done_ > c0.done_ || c2.quarantined < c1.quarantined
    in
    if
      ((not (busy c3)) && c3.quarantined = 0)
      || round >= rounds || interrupted () || not progressed
    then (round, merge)
    else round_loop (round + 1)
  in
  let rounds_used, merge = round_loop 1 in
  let c = counts () in
  {
    rounds = rounds_used;
    spawned = !spawned;
    respawns = max 0 (!spawned - workers);
    healed = !healed;
    heal_failures = !heal_failures;
    poisoned = c.quarantined;
    converged = (not (busy c)) && c.quarantined = 0;
    phases = List.rev !phases;
    merge;
  }

(* Drain tail: how long the last window outlived the median completion
   — the metric cost-model manifests exist to shrink. Derived from the
   done files' store mtimes, so it survives the controller restarting. *)
let drain_tail_s ~dir (m : Manifest.t) =
  let st = Store.active () in
  let mtimes =
    Array.to_list m.shards
    |> List.filter_map (fun (s : Manifest.shard) ->
           Result.to_option (st.Store.mtime (Manifest.done_path dir s.id)))
    |> List.sort compare
  in
  match mtimes with
  | [] | [ _ ] -> None
  | ts ->
      let a = Array.of_list ts in
      let n = Array.length a in
      let median =
        if n mod 2 = 1 then a.(n / 2)
        else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
      in
      Some (Float.max 0. (a.(n - 1) -. median))
