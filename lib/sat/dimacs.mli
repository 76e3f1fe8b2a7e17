(** DIMACS CNF export for cross-checking encodings against external
    solvers.

    {!Recorder} is a {!Solver.S} backend that records the clause set
    instead of solving it: feed it through {!Encode.Make} (or any other
    clause producer) and print the result with {!pp}.  Its [solve]
    always answers [Unknown (Crashed "sat.recorder")] — recording is not
    deciding — so it can never be mistaken for a definitive backend. *)

module Recorder : sig
  include Solver.S

  (** Recorded clauses, in insertion order, exactly as added: DIMACS-style
      literal arrays (no terminating 0), never normalised. *)
  val clauses : t -> int array list
end

(** [pp ?comments ppf r] — print the recorded instance in DIMACS CNF:
    [c] comment lines, the [p cnf <vars> <clauses>] header, then one
    zero-terminated clause per line. *)
val pp : ?comments:string list -> Format.formatter -> Recorder.t -> unit

val to_string : ?comments:string list -> Recorder.t -> string
