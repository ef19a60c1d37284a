(** Multicore primitives for the parallel exact engine.

    The engine is bulk-synchronous (work phase / barrier / decision
    phase); these are its building blocks.  Nothing here knows about
    games or states — see {!Engine} for the phase protocol that makes
    the combination deterministic. *)

(** Reusable barrier over [Mutex]/[Condition].  [await] on a 1-party
    barrier is free, so single-domain runs of the parallel engine pay
    no synchronization. *)
module Barrier : sig
  type t

  val create : int -> t
  (** [create parties]; [Invalid_argument] below 1. *)

  val await : t -> unit
  (** Block until all [parties] domains have arrived; the barrier then
      resets for the next round. *)
end

(** Growable flat [int] buffer: the message and move lanes and the
    frontier buckets of the parallel engine.  Not synchronized — the engine's barrier
    discipline is what makes sharing safe. *)
module Ibuf : sig
  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> int -> unit

  val get : t -> int -> int
  (** Unchecked. *)

  val set : t -> int -> int -> unit
  (** Unchecked. *)

  val clear : t -> unit
  (** Keeps the capacity. *)

  val truncate : t -> int -> unit
  (** [truncate b n] shortens [b] to [n] elements (no-op if already
      shorter) — in-place compaction ends with one of these. *)

  val words : t -> int
  (** Allocated heap words (the capacity, not the length). *)

  val swap : t -> t -> unit
  (** Exchange contents and capacity — O(1) bucket rotation. *)
end
