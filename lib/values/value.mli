(** Values populating incomplete databases: constants from [C] and nulls
    from [N] (Section 2.1 of the paper).  Constants and nulls are disjoint;
    nulls are identified by integer ids and printed as [_|_k]. *)

type const =
  | Int of int
  | Str of string

type t =
  | Const of const
  | Null of int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_null : t -> bool
val is_const : t -> bool

(** [int n] and [str s] build constant values. *)
val int : int -> t

val str : string -> t

(** [null i] is the null with id [i]. *)
val null : int -> t

(** [fresh_null ()] returns a null unused by any previous call; the supply is
    global and monotone.  [reset_fresh ()] restarts it (tests only). *)
val fresh_null : unit -> t

val reset_fresh : unit -> unit

(** [fresh_const ()] returns a constant guaranteed distinct from all
    constants returned by previous calls and from every constant the
    instance and query tokenizer can produce: it is drawn from the
    reserved namespace ["\"#k"], whose double quote neither a quoted
    literal nor an identifier can spell. *)
val fresh_const : unit -> t

val compare_const : const -> const -> int
val pp_const : Format.formatter -> const -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
