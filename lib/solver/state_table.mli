(** Open-addressing hash tables for the packed integer state keys of
    the exact solvers: {!Flat} for one search, {!Sharded} for a
    multicore one.  Every exact solve runs on {!Flat}, whose key width
    is fixed per game (PRBP packs 2 ints, RBP 3, the multiprocessor
    games [p + 2] / [2p + 2]).

    Keys and the stored value (the tentative 0-1 BFS distance) live in
    flat [int array]s — no boxing, no polymorphic hashing.  [add]
    returns a {e dense index}, assigned in insertion order and stable
    across growth; solvers use it as the queue token and as a handle
    into parallel parent-pointer arrays for strategy reconstruction.

    {!Flat} is not thread-safe: one table per search. *)

(** Width-generic table: each key is [width] consecutive ints,
    supplied and read back through caller-owned buffers.  This is the
    storage behind the functorized {!Engine} — instances choose their
    packing width at construction time. *)
module Flat : sig
  type t

  val create : ?capacity:int -> width:int -> unit -> t
  (** [width >= 1] ints per key.  [capacity] hints the initial dense
      capacity (rounded up to a power of two, floored at 64; default
      4096) — growth doubles from there, and {!resizes}/{!recycle} count
      against the creation-time baseline.  Shard-of-[n] callers pass
      [default / n] so the aggregate footprint of a sharded table
      matches a single sequential one. *)

  val width : t -> int

  val length : t -> int

  val find : t -> int array -> int
  (** [find t buf] looks up the key in [buf.(0 .. width-1)]; dense
      index or [-1]. *)

  val add : t -> int array -> int -> int
  (** [add t buf v] inserts the key in [buf.(0 .. width-1)] (known to
      be absent) with value [v]; returns its dense index. *)

  val read_key : t -> int -> int array -> unit
  (** [read_key t j buf] copies key [j] into [buf.(0 .. width-1)]. *)

  val key : t -> int -> int -> int
  (** [key t j i] is component [i] of key [j]. *)

  val value : t -> int -> int

  val set_value : t -> int -> int -> unit

  val words : t -> int
  (** Heap words a fresh table's arrays would hold after the same
      inserts (headers aside) — the dominant term of a search's memory
      footprint, used for budget enforcement.  Like {!load},
      {!capacity} and {!resizes}, this is a logical size: storage that
      {!recycle} kept from an earlier search does not count. *)

  val load : t -> float
  (** Probe-array load factor (kept below 3/4 by growth). *)

  val capacity : t -> int
  (** Current dense-column capacity (a power of two times the initial
      capacity). *)

  val resizes : t -> int
  (** How many geometric growth steps the dense columns have taken
      since creation (or the last {!recycle}) — the engine's
      table-resize metric. *)

  val recycle : t -> width:int -> unit
  (** [recycle t ~width] empties [t] for a new search over
      [width]-int keys, keeping its arrays: it zeroes only the
      probe-array prefix a fresh table would use, and allocates only
      when the kept key column is too short for the creation-time
      capacity at [width].  Growth past that prefix zeroes the next
      prefix and re-places the entries from the key column, so probe
      order, dense indices and every logical size are those of
      [create ~width ()] with the same capacity hint. *)
end

(** Hash-partitioned collection of {!Flat} shards for multicore
    searches.  The owner shard of a key is a pure function of the key
    (top bits of the shared probe hash), so domains can partition work
    without communication.

    Access is owner-routed: a domain touches only [shard t k] for the
    [k] it owns, which is what the parallel {!Engine} does; its barrier
    protocol supplies the synchronization, so nothing here locks.
    Handles pack (dense index, shard) into one int. *)
module Sharded : sig
  type t

  val create : ?shards:int -> width:int -> unit -> t
  (** [shards] (default 1, max 4096) is rounded up to a power of
      two. *)

  val shards : t -> int
  (** The actual (power-of-two) shard count. *)

  val owner : t -> int array -> int
  (** Owner shard of a key — pure. *)

  val shard : t -> int -> Flat.t
  (** Direct access to one shard.  Unsynchronized: only the owning
      domain may touch it between barriers. *)

  val replace_shard : t -> int -> Flat.t -> unit
  (** Swap a rebuilt shard in (spill compaction).  Owner-only, same
      discipline as {!shard}; the replacement's width must match. *)

  val words : t -> int
  (** Total heap words across shards. *)

  val handle : t -> shard:int -> int -> int
  (** Pack a (shard, dense index) pair into a global handle. *)

  val shard_of_handle : t -> int -> int

  val index_of_handle : t -> int -> int
end
