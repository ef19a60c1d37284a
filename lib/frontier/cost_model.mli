(** The unit cost model of the multiprocessor games: the time axis of
    the {!Frontier} sweeps.

    A compute, a load and a save each take one time unit on the
    processor that plays them, and a delete takes none; a load or a
    save also moves one word between fast and slow memory.  The exact
    engines ({!Prbp_solver.Exact_multi}) minimize exactly that
    communication volume, the total I/O; this module adds the time a
    strategy spends on each processor, and a certified floor on the
    largest such time. *)

val name : string
(** ["unit"]: the frontier's ["model"] on the wire. *)

(** {1 Replay pricing} *)

type eval = {
  comm : int;
      (** total communication volume: the certified I/O cost of the
          strategy *)
  makespan : int;
      (** max over processors of that processor's summed move times —
          a volume proxy for schedule length that ignores
          dependency-induced idling *)
  per_proc_time : int array;
}

val eval_rbp :
  Prbp_pebble.Multi.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Multi.Move.rbp list ->
  (eval, string) result
(** Check the strategy through {!Prbp_pebble.Multi.R.check}, one
    replay through the literal rules, and price its moves: each move's
    time accrues to its acting processor.  [Error] iff the checker
    rejects the strategy — a priced cost is always a certified cost. *)

val eval_prbp :
  Prbp_pebble.Multi.config ->
  Prbp_dag.Dag.t ->
  Prbp_pebble.Multi.Move.prbp list ->
  (eval, string) result

(** {1 Certified makespan floors} *)

val makespan_lower :
  game:[ `Rbp | `Prbp ] -> p:int -> comm_lower:int -> Prbp_dag.Dag.t -> int
(** A certified lower bound on the (volume-proxy) makespan of {e every}
    complete one-shot [p]-processor pebbling, given a certified lower
    bound [comm_lower] on its communication volume:
    [⌈(work + comm_lower) / p⌉], where [work] is the compute time every
    such pebbling spends (each non-source node (RBP) / each edge
    (PRBP) is computed once) — the summed per-processor times total at
    least the mandatory compute work plus the mandatory I/O time, and
    the maximum is at least the average. *)
