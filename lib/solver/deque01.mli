(** Double-ended queue of non-negative ints for 0-1 BFS (growable
    circular buffer over a flat [int array]). *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val push_front : t -> int -> unit

val push_back : t -> int -> unit

val pop_front : t -> int
(** The front element, removed; [-1] when the deque is empty (the
    solvers queue dense state indices, which are never negative). *)

val iter : (int -> unit) -> t -> unit
(** Visit every queued element front to back, without popping.  Used
    by the anytime engine to scan the surviving frontier for the
    certified lower bound at truncation. *)

val words : t -> int
(** Heap words a fresh deque would hold after the same pushes and pops
    since {!create} or {!recycle}: its logical capacity, independent of
    any storage kept from an earlier use. *)

val clear : t -> unit
(** Empty the deque and release its buffer. *)

val recycle : t -> unit
(** Empty the deque but keep its buffer for the next search; {!words}
    restarts from that of a fresh deque. *)
