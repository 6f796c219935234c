(* Succinct factor sets: dense integer ids for Facs(w) assigned from the
   suffix automaton's end-position classes, with factor-set membership,
   concatenation and affix queries all answered by automaton walks over
   the original word — no substring is ever materialized on a query
   path. The packed solver engine ({!Efgame.Packed}) manipulates factors
   exclusively through these ids, and the FC model checker ({!Fc.Eval})
   evaluates on them. *)

type t = {
  word : string;
  sa : Suffix_automaton.t;
  size : int; (* distinct factors, including ε (id 0) *)
  base : int array; (* state -> id of its class's shortest factor *)
  minlen : int array; (* state -> shortest factor length in its class *)
  state_of_id : int array; (* id -> owning automaton state *)
  len_of_id : int array;
  start_of_id : int array; (* id -> start offset of a representative occurrence *)
  word_prefix : Bytes.t; (* bitset: factor is a prefix of [word] *)
  word_suffix : Bytes.t; (* bitset: factor is a suffix of [word] *)
  concat_memo : (int, int) Hashtbl.t; (* i * size + j -> id + 1; 0 = ∉ Facs *)
}

(* ------------------------------------------------------------ bitsets *)

module Bitset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) / 8) '\x00'

  let mem b i =
    Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let add b i =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

  let remove b i =
    Bytes.unsafe_set b (i lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get b (i lsr 3))
         land lnot (1 lsl (i land 7))))

  let clear b = Bytes.fill b 0 (Bytes.length b) '\x00'
end

(* ------------------------------------------------------------- build *)

let of_word word =
  let sa = Suffix_automaton.build word in
  let nstates = Suffix_automaton.state_count sa in
  let base = Array.make nstates 0 in
  let minlen = Array.make nstates 0 in
  let next_id = ref 1 in
  for v = 1 to nstates - 1 do
    let link = Suffix_automaton.state_link sa v in
    minlen.(v) <- Suffix_automaton.state_len sa link + 1;
    base.(v) <- !next_id;
    next_id := !next_id + (Suffix_automaton.state_len sa v - minlen.(v)) + 1
  done;
  let size = !next_id in
  let state_of_id = Array.make size 0 in
  let len_of_id = Array.make size 0 in
  let start_of_id = Array.make size 0 in
  for v = 1 to nstates - 1 do
    let fe = Suffix_automaton.state_first_end sa v in
    for l = minlen.(v) to Suffix_automaton.state_len sa v do
      let id = base.(v) + (l - minlen.(v)) in
      state_of_id.(id) <- v;
      len_of_id.(id) <- l;
      start_of_id.(id) <- fe - l
    done
  done;
  let word_prefix = Bitset.create size and word_suffix = Bitset.create size in
  let id_at state len =
    if len = 0 then 0 else base.(state) + (len - minlen.(state))
  in
  let n = String.length word in
  Bitset.add word_prefix 0;
  Bitset.add word_suffix 0;
  let st = ref 0 in
  for i = 0 to n - 1 do
    st := Option.get (Suffix_automaton.step sa !st word.[i]);
    Bitset.add word_prefix (id_at !st (i + 1))
  done;
  for i = n - 1 downto 0 do
    let st = ref 0 in
    (* walking each suffix is O(n²) total; build is already O(n²) ids *)
    for j = i to n - 1 do
      st := Option.get (Suffix_automaton.step sa !st word.[j])
    done;
    Bitset.add word_suffix (id_at !st (n - i))
  done;
  {
    word;
    sa;
    size;
    base;
    minlen;
    state_of_id;
    len_of_id;
    start_of_id;
    word_prefix;
    word_suffix;
    concat_memo = Hashtbl.create 256;
  }

(* ----------------------------------------------------------- queries *)

let word t = t.word
let size t = t.size
let length t i = t.len_of_id.(i)
let start t i = t.start_of_id.(i)
let extract t i = String.sub t.word t.start_of_id.(i) t.len_of_id.(i)
let is_word_prefix t i = Bitset.mem t.word_prefix i
let is_word_suffix t i = Bitset.mem t.word_suffix i

let id_at t state len =
  if len = 0 then 0 else t.base.(state) + (len - t.minlen.(state))

(* Walk [len] characters of [word] starting at offset [off], from automaton
   state [st]; -1 when the walk falls off the automaton. *)
let walk_range t st off len =
  let rec go st i =
    if i = len then st
    else
      match Suffix_automaton.step t.sa st t.word.[off + i] with
      | Some st' -> go st' (i + 1)
      | None -> -1
  in
  go st 0

let position_ids t =
  (* one walk per start offset: row [i] reads w[i..] once, O(|w|²) *)
  let n = String.length t.word in
  Array.init (n + 1) (fun i ->
      let row = Array.make (n - i + 1) 0 in
      let st = ref 0 in
      for l = 1 to n - i do
        st := Option.get (Suffix_automaton.step t.sa !st t.word.[i + l - 1]);
        row.(l) <- id_at t !st l
      done;
      row)

let id_of_sub t s ~off ~len =
  (* membership of a substring of a foreign string: same walk as [id_of]
     but over [s] directly, so cross-index lookups allocate nothing *)
  let rec go st i =
    if i = len then id_at t st len
    else
      match Suffix_automaton.step t.sa st s.[off + i] with
      | Some st' -> go st' (i + 1)
      | None -> -1
  in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Factor_bitset.id_of_sub";
  go 0 0

let id_of t u =
  let rec go st i =
    if i = String.length u then Some (id_at t st (String.length u))
    else
      match Suffix_automaton.step t.sa st u.[i] with
      | Some st' -> go st' (i + 1)
      | None -> None
  in
  go 0 0

let concat t i j =
  if i = 0 then j
  else if j = 0 then i
  else
    let key = (i * t.size) + j in
    match Hashtbl.find_opt t.concat_memo key with
    | Some r -> r - 1
    | None ->
        let li = t.len_of_id.(i) and lj = t.len_of_id.(j) in
        let r =
          if li + lj > String.length t.word then -1
          else
            let st =
              walk_range t t.state_of_id.(i) t.start_of_id.(j) lj
            in
            if st < 0 then -1 else id_at t st (li + lj)
        in
        Hashtbl.add t.concat_memo key (r + 1);
        r

let sub_id t i ~off ~len =
  (* any substring of a factor is a factor, so the walk cannot fail *)
  if off < 0 || len < 0 || off + len > t.len_of_id.(i) then
    invalid_arg "Factor_bitset.sub_id";
  id_at t (walk_range t 0 (t.start_of_id.(i) + off) len) len

let is_prefix_of t i j =
  let li = t.len_of_id.(i) and lj = t.len_of_id.(j) in
  li <= lj
  &&
  let si = t.start_of_id.(i) and sj = t.start_of_id.(j) in
  let rec go k = k = li || (t.word.[si + k] = t.word.[sj + k] && go (k + 1)) in
  go 0

let is_suffix_of t i j =
  let li = t.len_of_id.(i) and lj = t.len_of_id.(j) in
  li <= lj
  &&
  let si = t.start_of_id.(i) and sj = t.start_of_id.(j) + (lj - li) in
  let rec go k = k = li || (t.word.[si + k] = t.word.[sj + k] && go (k + 1)) in
  go 0

let equal_factors t i u =
  (* does factor [i] spell exactly the string [u]? char compare, no alloc *)
  let li = t.len_of_id.(i) in
  li = String.length u
  &&
  let si = t.start_of_id.(i) in
  let rec go k = k = li || (t.word.[si + k] = u.[k] && go (k + 1)) in
  go 0
