(** Multiprocessor red-blue pebbling, in the spirit of the
    parallel-RBP line of work the paper points at in Section 8.1
    ([Böhnlein–Papp–Yzelman 2025] and earlier).

    [p] processors each own a fast memory of capacity [r]; slow memory
    is shared and unbounded.  All I/O (loads and saves, on any
    processor) counts toward one total cost — the model measures
    {e communication volume}, not makespan.

    {b RBP-MC}: a value may be red on several processors at once (each
    holding its own copy); COMPUTE on processor [q] needs all inputs
    red on [q] and places the result red on [q].  One-shot globally.

    {b PRBP-MC}: the partial value of a node lives on at most one
    processor (a dark pebble is exclusive); light copies may exist on
    several.  A partial compute along [(u,v)] on processor [q] needs
    [u] fully computed and red on [q], and [v] either red on [q] or
    stored nowhere; it invalidates all other copies of [v] (they are
    stale) and leaves [v] dark on [q].  Handing a partial value from
    one processor to another therefore costs a save and a load — the
    communication/aggregation trade-off that makes the parallel game
    interesting.

    These semantics are this library's (conservative) formalization of
    the extension the paper only sketches.  Both games are one-shot:
    each node (RBP-MC) or edge (PRBP-MC) is computed once over all
    processors.

    {b Rules.}  This module holds only the move vocabulary and the two
    checkers.  The checkers replay a strategy through the literal rules
    of {!Verifier}, which are written once for [p] processors; a
    multiprocessor move is a single-processor move played by its
    processor.  At [p = 1] the rules are the Section-1/3 games by
    construction, and the differential tests of both (the [multi] and
    [verifier] suites, and the pinned verdicts of
    [test/golden/multi_checker_v1.jsonl]) check that reduction. *)

type config = {
  p : int;  (** number of processors *)
  r : int;  (** fast-memory capacity per processor *)
}

val config : p:int -> r:int -> unit -> config
(** @raise Invalid_argument unless [p ≥ 1] and [r ≥ 1]. *)

module Single = Move
(** The single-processor move vocabulary of {!Move}, under a name that
    survives the shadowing below. *)

(** Moves name the acting processor. *)
module Move : sig
  type rbp =
    | Load of int * int  (** processor, node *)
    | Save of int * int
    | Compute of int * int
    | Delete of int * int

  type prbp =
    | Load of int * int
    | Save of int * int
    | Compute of int * (int * int)  (** processor, edge *)
    | Delete of int * int

  val pp_rbp : Format.formatter -> rbp -> unit

  val pp_prbp : Format.formatter -> prbp -> unit
end

(** {1 Checkers} *)

module R : sig
  val check :
    config -> Prbp_dag.Dag.t -> Move.rbp list -> (int, string) result
  (** Replay through {!Verifier.R.step} on each move's processor and
      require every sink blue at the end; [Ok cost] is the certified
      I/O cost (loads and saves over all processors).  An [Error]
      names the first rejected move, ["move #i (…): reason"], or says
      the pebbling is incomplete. *)
end

module P : sig
  val check :
    config -> Prbp_dag.Dag.t -> Move.prbp list -> (int, string) result
  (** Like {!R.check}, through {!Verifier.P.step}; terminal means every
      edge marked and every sink blue. *)
end

(** {1 Single-processor specialization} *)

val lift_rbp : Single.R.t list -> Move.rbp list
(** Run a single-processor strategy on processor 0 — used to check
    that the [p = 1] case coincides with the Section-1 game
    ([Slide] moves are rejected with [Invalid_argument]). *)

val lift_prbp : Single.P.t list -> Move.prbp list
(** Likewise for PRBP ([Clear] moves are rejected). *)
