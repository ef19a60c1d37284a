(** Allocation-free bit operations for the packed-bitmask state
    encodings of {!Exact_rbp} and {!Exact_prbp}. *)

val popcount : int -> int
(** Number of set bits, SWAR (no loop, no table). *)

val lowest_set_index : int -> int
(** Index of the least significant set bit.  Undefined on [0].  The
    games walk a mask's bits in increasing order with it, clearing the
    lowest bit each step ([m land (m - 1)]), written out inline: a
    higher-order iterator would allocate a closure per call. *)
