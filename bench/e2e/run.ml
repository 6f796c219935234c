(* The closed-loop recorder: one client, one operation in flight.

   A workload's measured loop asks [more] before each operation (or
   each pass, for workloads measured in whole passes) and hands every
   operation to [op], which times it, counts it, and checks its answer
   after the clock has stopped. *)

type check = Pass | Mismatch of string | Failed of string

type budget =
  | Deadline of int  (** monotonic ns at which the loop stops *)
  | Ops of int  (** replay exactly this many operations *)

(* Per-operation samples live outside the OCaml heap, so the recorder's
   own growth never shows in the workload's peak heap. *)
type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let samples n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

type t = {
  budget : budget;
  mutable ops : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable notes : string list;  (** the first few failures, newest first *)
  mutable lat_ms : samples;
  mutable cpu_ms : samples;
  mutable pass_ends : int list;  (** op counts at the end of each pass, newest first *)
  mutable worker_heap_words : int;  (** peak over forked workers *)
}

let create budget =
  {
    budget;
    ops = 0;
    failed = 0;
    mismatches = 0;
    notes = [];
    lat_ms = samples 1024;
    cpu_ms = samples 1024;
    pass_ends = [];
    worker_heap_words = 0;
  }

(* Another operation (or pass) may start. *)
let more r =
  match r.budget with Deadline t -> Span.now_ns () < t | Ops n -> r.ops < n

(* Within a pass only a replay stops early, at the recorded count. *)
let room r = match r.budget with Deadline _ -> true | Ops n -> r.ops < n

(* Every pass has the same mix, so segments are cut at pass ends. *)
let end_pass r = r.pass_ends <- r.ops :: r.pass_ends

let note r msg = if List.length r.notes < 5 then r.notes <- msg :: r.notes

let fail r msg =
  r.failed <- r.failed + 1;
  note r msg

let mismatch r msg =
  r.mismatches <- r.mismatches + 1;
  fail r ("mismatch: " ^ msg)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let op r thunk check =
  let id = r.ops in
  let c0 = cpu_now () in
  let t0 = Span.now_ns () in
  let res = match Span.op id thunk with v -> Ok v | exception e -> Error e in
  let dt = Span.now_ns () - t0 in
  let cpu = cpu_now () -. c0 in
  if id >= Bigarray.Array1.dim r.lat_ms then begin
    let grow a =
      let b = samples (2 * id) in
      Bigarray.Array1.(blit a (sub b 0 id));
      b
    in
    r.lat_ms <- grow r.lat_ms;
    r.cpu_ms <- grow r.cpu_ms
  end;
  r.lat_ms.{id} <- float_of_int dt /. 1e6;
  r.cpu_ms.{id} <- cpu *. 1e3;
  r.ops <- id + 1;
  match res with
  | Error e -> fail r ("exception: " ^ Printexc.to_string e)
  | Ok v -> (
      match check v with
      | Pass -> ()
      | Mismatch m -> mismatch r m
      | Failed m -> fail r m)

let to_array a n = Array.init n (fun i -> a.{i})
