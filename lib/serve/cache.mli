(** A mutex-protected LRU map from content-addressed keys to cached
    certificates — the result cache in front of the [prbpd] solvers.

    Keys are strings built by the server from
    [(Dag.hash, game, r, variants, budget-class)]; values are whatever
    the server caches (certificates in canonical label space).  The
    cache itself is generic and enforces only the LRU contract: at
    most [capacity] entries, {!find} refreshes recency, insertion
    beyond capacity evicts the least recently used entry.

    Entries are {e certificates}, so eviction is always safe — a miss
    merely re-solves. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] ≥ 1 entries. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite (either way the entry becomes most recent);
    evicts the least-recently-used entry when over capacity. *)

val remove : 'a t -> string -> unit
(** Drop an entry (e.g. one whose certificate failed re-verification). *)

val length : 'a t -> int
