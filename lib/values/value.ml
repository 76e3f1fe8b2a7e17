type const =
  | Int of int
  | Str of string

type t =
  | Const of const
  | Null of int

let compare_const c1 c2 =
  match c1, c2 with
  | Int i, Int j -> Int.compare i j
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1
  | Str s, Str t -> String.compare s t

let compare v1 v2 =
  match v1, v2 with
  | Const c1, Const c2 -> compare_const c1 c2
  | Const _, Null _ -> -1
  | Null _, Const _ -> 1
  | Null i, Null j -> Int.compare i j

let equal v1 v2 = compare v1 v2 = 0

let hash = function
  | Const (Int i) -> Hashtbl.hash (0, i)
  | Const (Str s) -> Hashtbl.hash (1, s)
  | Null i -> Hashtbl.hash (2, i)

let is_null = function Null _ -> true | Const _ -> false
let is_const = function Const _ -> true | Null _ -> false

let int i = Const (Int i)
let str s = Const (Str s)
let null i = Null i

(* Atomic so that fresh values drawn from concurrent domains (the batch
   layer) are still globally unique. *)
let null_counter = Atomic.make 0
let const_counter = Atomic.make 0

let fresh_null () = Null (1 + Atomic.fetch_and_add null_counter 1)

let reset_fresh () =
  Atomic.set null_counter 0;
  Atomic.set const_counter 0

(* the spelling starts with a double-quote character, which no parsed
   constant holds: a quoted literal ends at its first one and an
   identifier has none *)
let fresh_const () =
  Const (Str (Printf.sprintf "\"#%d" (1 + Atomic.fetch_and_add const_counter 1)))

let pp_const ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Str s -> Format.fprintf ppf "%s" s

let pp ppf = function
  | Const c -> pp_const ppf c
  | Null i -> Format.fprintf ppf "_|_%d" i

let to_string v = Format.asprintf "%a" pp v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
