module Int_set = Structure.Int_set
module Int_map = Structure.Int_map

(* The public restrict representation: a partial map from source nodes to
   admissible target-node sets.  Absent node = unconstrained; [None] as a
   whole = the everywhere-unconstrained restriction, so composing with it
   is free.  This replaces the old [Structure.candidates = int -> Int_set.t]
   closures, which could be neither inspected, intersected structurally,
   nor compiled to bitsets without knowing the variable set. *)
type t = Int_set.t Int_map.t option

let unconstrained : t = None
let of_map m : t = Some m
let of_list l : t = Some (List.fold_left (fun m (v, s) -> Int_map.add v s m) Int_map.empty l)

let singleton v w : t = Some (Int_map.singleton v (Int_set.singleton w))

let is_unconstrained (d : t) = d = None
let to_map (d : t) = d

let find (d : t) v =
  match d with None -> None | Some m -> Int_map.find_opt v m

let mem (d : t) v w =
  match find d v with None -> true | Some s -> Int_set.mem w s

(* Pointwise intersection; a node absent on one side keeps the other
   side's constraint (absent = everything). *)
let inter (d1 : t) (d2 : t) : t =
  match (d1, d2) with
  | None, d | d, None -> d
  | Some m1, Some m2 ->
    Some
      (Int_map.union (fun _ s1 s2 -> Some (Int_set.inter s1 s2)) m1 m2)

let pp ppf (d : t) =
  match d with
  | None -> Format.fprintf ppf "unconstrained"
  | Some m ->
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (v, s) ->
           Format.fprintf ppf "%d -> {%a}" v
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
                Format.pp_print_int)
             (Int_set.elements s)))
      (Int_map.bindings m)

(* {1 Word-parallel bitsets}

   The engine and the bounded-treewidth DP run over dense node ids in
   [0, cap); a domain is a bitset of [cap] bits packed into an int array,
   so support checks and intersections are [land]/[lor] over words. *)

module Bitset = struct
  type bs = int array

  let bits_per_word = Sys.int_size
  let words_for cap = (cap + bits_per_word - 1) / bits_per_word
  let create cap : bs = Array.make (max 1 (words_for cap)) 0

  let full cap : bs =
    let w = max 1 (words_for cap) in
    let a = Array.make w 0 in
    for i = 0 to cap - 1 do
      a.(i / bits_per_word) <- a.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))
    done;
    a

  let set (a : bs) i =
    a.(i / bits_per_word) <- a.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

  let mem (a : bs) i = a.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

  let popcount_word w =
    let rec go n w = if w = 0 then n else go (n + 1) (w land (w - 1)) in
    go 0 w

  let count (a : bs) =
    let n = ref 0 in
    Array.iter (fun w -> n := !n + popcount_word w) a;
    !n

  let is_empty (a : bs) = Array.for_all (fun w -> w = 0) a

  (* dst := dst land src; returns the number of bits cleared. *)
  let inter_into ~(dst : bs) (src : bs) =
    let cleared = ref 0 in
    for k = 0 to Array.length dst - 1 do
      let before = dst.(k) in
      let after = before land src.(k) in
      if after <> before then begin
        cleared := !cleared + popcount_word (before lxor after);
        dst.(k) <- after
      end
    done;
    !cleared

  let clear (a : bs) = Array.fill a 0 (Array.length a) 0
  let blit ~(src : bs) ~(dst : bs) = Array.blit src 0 dst 0 (Array.length src)
  let copy (a : bs) = Array.copy a

  let iter f (a : bs) =
    for k = 0 to Array.length a - 1 do
      let w = ref a.(k) in
      while !w <> 0 do
        let b = !w land - !w in
        let rec log2 i x = if x = 1 then i else log2 (i + 1) (x lsr 1) in
        f ((k * bits_per_word) + log2 0 b);
        w := !w land (!w - 1)
      done
    done

  let min_elt_opt (a : bs) =
    let exception Found of int in
    try
      iter (fun i -> raise (Found i)) a;
      None
    with Found i -> Some i

  let to_list (a : bs) =
    let l = ref [] in
    iter (fun i -> l := i :: !l) a;
    List.rev !l
end

(* {1 The mutable domain matrix of the search}

   One bitset row per variable, stored flat, with a cardinality cache per
   row — MRV reads [counts] and never touches the bits. *)

module Dense = struct
  type matrix = {
    vars : int;
    cap : int;
    words : int;
    bits : int array; (* vars * words, row-major *)
    counts : int array;
  }

  let create ~vars ~cap =
    let words = max 1 (Bitset.words_for cap) in
    {
      vars;
      cap;
      words;
      bits = Array.make (max 1 (vars * words)) 0;
      counts = Array.make (max 1 vars) 0;
    }

  let row_off m v = v * m.words

  let set m v i =
    let off = row_off m v in
    let k = off + (i / Bitset.bits_per_word) in
    let b = 1 lsl (i mod Bitset.bits_per_word) in
    if m.bits.(k) land b = 0 then begin
      m.bits.(k) <- m.bits.(k) lor b;
      m.counts.(v) <- m.counts.(v) + 1
    end

  let mem m v i =
    m.bits.(row_off m v + (i / Bitset.bits_per_word))
    land (1 lsl (i mod Bitset.bits_per_word))
    <> 0

  let count m v = m.counts.(v)

  (* row v := row v land mask; returns bits cleared and refreshes the
     cached count. *)
  let inter_row m v (mask : Bitset.bs) =
    let off = row_off m v in
    let cleared = ref 0 in
    for k = 0 to m.words - 1 do
      let before = m.bits.(off + k) in
      let after = before land mask.(k) in
      if after <> before then begin
        cleared := !cleared + Bitset.popcount_word (before lxor after);
        m.bits.(off + k) <- after
      end
    done;
    m.counts.(v) <- m.counts.(v) - !cleared;
    !cleared

  let save_row m v =
    Array.sub m.bits (row_off m v) m.words

  let restore_row m v (saved : int array) count =
    Array.blit saved 0 m.bits (row_off m v) m.words;
    m.counts.(v) <- count

  let blit_row_to m v (dst : Bitset.bs) =
    Array.blit m.bits (row_off m v) dst 0 m.words

  let set_row m v (src : Bitset.bs) =
    Array.blit src 0 m.bits (row_off m v) m.words;
    m.counts.(v) <- Bitset.count src

  let iter_row f m v =
    let off = row_off m v in
    for k = 0 to m.words - 1 do
      let w = ref m.bits.(off + k) in
      while !w <> 0 do
        let b = !w land - !w in
        let rec log2 i x = if x = 1 then i else log2 (i + 1) (x lsr 1) in
        f ((k * Bitset.bits_per_word) + log2 0 b);
        w := !w land (!w - 1)
      done
    done

  let row_to_list m v =
    let l = ref [] in
    iter_row (fun i -> l := i :: !l) m v;
    List.rev !l

  let row_is_empty m v = m.counts.(v) = 0
end
