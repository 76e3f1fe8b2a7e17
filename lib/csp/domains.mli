(** Candidate domains for hom searches — the successor of the retired
    [Structure.candidates = int -> Int_set.t] closures.

    A {!t} is the relation [R ⊆ A × B] of Theorem 6's R-compatible
    homomorphisms, represented as a partial map from source nodes to
    admissible target-node sets.  Two conventions make composition cheap:
    a node {e absent} from the map is unconstrained, and
    {!unconstrained} itself is a distinguished whole-map value so that
    passing "no restriction" costs nothing.  Unlike the old closures a
    {!t} can be inspected, intersected structurally ({!inter}), and
    compiled to the engine's dense bitsets.

    The {!Bitset} and {!Dense} submodules are the word-parallel machinery
    the engine and the CNF encoder compile domains into: support
    checks and intersections become [land]/[lor] over int arrays. *)

module Int_set = Structure.Int_set
module Int_map = Structure.Int_map

type t

(** No restriction anywhere ([R = A × B]). *)
val unconstrained : t

val of_map : Int_set.t Int_map.t -> t
val of_list : (int * Int_set.t) list -> t

(** [singleton v w] pins node [v] to exactly [w]. *)
val singleton : int -> int -> t

(** [find d v] — [None] means unconstrained (every target node is
    admissible), [Some s] restricts [v] to [s]. *)
val find : t -> int -> Int_set.t option

(** [mem d v w] — is [w] admissible for [v]?  [true] when [v] is
    unconstrained. *)
val mem : t -> int -> int -> bool

(** Pointwise intersection of the two relations. *)
val inter : t -> t -> t

val is_unconstrained : t -> bool

(** The underlying partial map, [None] when {!unconstrained}. *)
val to_map : t -> Int_set.t Int_map.t option

val pp : Format.formatter -> t -> unit

(** Word-parallel bitsets over dense ids [0..cap-1]. *)
module Bitset : sig
  type bs = int array

  val bits_per_word : int
  val words_for : int -> int

  (** All-zero bitset with capacity [cap]. *)
  val create : int -> bs

  val set : bs -> int -> unit
  val remove : bs -> int -> unit
  val mem : bs -> int -> bool
  val popcount_word : int -> int
  val count : bs -> int
  val is_empty : bs -> bool

  (** [inter_into ~dst src] — [dst := dst land src]; returns the number
      of bits cleared. *)
  val inter_into : dst:bs -> bs -> int

  val clear : bs -> unit
  val copy : bs -> bs

  (** Ascending iteration over set bits. *)
  val iter : (int -> unit) -> bs -> unit

  val to_list : bs -> int list
end

(** The mutable domain matrix of the backtracking search: one bitset row
    per variable plus a cardinality cache, so MRV reads an int and
    forward checking is row-wise [land]. *)
module Dense : sig
  type matrix = private {
    vars : int;
    cap : int;
    words : int;
    bits : int array; (* vars * words, row-major *)
    counts : int array;
  }

  val create : vars:int -> cap:int -> matrix
  val count : matrix -> int -> int

  (** [inter_row m v mask] — row [v] &= [mask]; returns bits cleared and
      refreshes the cached count. *)
  val inter_row : matrix -> int -> Bitset.bs -> int

  (** [clip_row m v ~lo ~hi] — row [v] keeps only the values in
      [\[lo, hi\]] ([hi < max_int]); returns bits cleared and refreshes
      the cached count. *)
  val clip_row : matrix -> int -> lo:int -> hi:int -> int

  (** Trail support: a saved row is an opaque word array restored
      verbatim. *)
  val save_row : matrix -> int -> int array

  val restore_row : matrix -> int -> int array -> int -> unit

  (** [set_row m v src] overwrites row [v] and recomputes its count. *)
  val set_row : matrix -> int -> Bitset.bs -> unit

  val iter_row : (int -> unit) -> matrix -> int -> unit
  val row_to_list : matrix -> int -> int list
end
