(** Interval-width regression gate for the bracket and frontier
    benchmarks.

    A bracket's quality is its {e interval width} ([upper − lower]);
    the committed [BENCH_solver.json] records one per bracket case,
    and one summed width per multiprocessor frontier case.  Those rows
    are wire records ({!Prbp_wire.Wire.bracket},
    {!Prbp_wire.Wire.frontier}), so this module reads them back with
    the same codec that wrote them and compares a fresh run against
    them, flagging any case whose width grew beyond a small slack.
    [bench/main.exe --check-widths] and the CI bracket smoke are the
    two callers.

    {b Schema history.}  [BENCH_solver.json] schema
    ["prbp-solver-bench/v9"] adds the ["frontiers"] array; a v8 file
    has none and yields an empty frontier baseline, which
    [--check-widths] refuses.  Schema v10 adds a ["curve"] to each
    bracket row; the curve gate below ({!check_curve}) is
    {e structural} — monotonicity and final-point agreement — because
    timing-comparative curve baselines would flake in CI.  Schema v11
    ({!Prbp_wire.Wire.bench_schema}) keeps only ["schema"],
    ["brackets"] and ["frontiers"], dropping the single-shot solver rows
    and the ["convergence"] summary; this module reads only the two
    arrays, so v9–v11 files all decode. *)

type baseline = {
  brackets : Prbp_wire.Wire.bracket list;  (** the ["brackets"] rows *)
  frontiers : Prbp_wire.Wire.frontier list;  (** the ["frontiers"] rows *)
}

val of_string : string -> (baseline, string) result
(** Decode a [BENCH_solver.json] document.  A row that does not decode
    as its wire record is an [Error] naming the row, never a row
    silently dropped from the baseline. *)

val of_file : string -> (baseline, string) result
(** {!of_string} on a file's contents.  Raises [Sys_error] if the file
    cannot be read. *)

type verdict =
  | Ok_width of { row : Prbp_wire.Wire.bracket; baseline : int }
  | Regressed of { row : Prbp_wire.Wire.bracket; baseline : int; limit : int }
  | New_case of Prbp_wire.Wire.bracket
      (** no baseline row with the same family, game and [r] *)

val check :
  ?slack_pct:int ->
  baseline:Prbp_wire.Wire.bracket list ->
  Prbp_wire.Wire.bracket list ->
  verdict list
(** One verdict per current row, in order.  A row regresses when its
    width exceeds its baseline by more than [slack_pct] percent
    ([10] by default) {e and} by more than one absolute unit — brackets
    run under wall-clock budgets, so hairline wobble is not a
    regression. *)

val pp_verdict : Format.formatter -> verdict -> unit

val regressed : verdict list -> bool
(** [true] iff some verdict is {!Regressed}. *)

(** {1 Frontier rows} *)

type frontier_verdict =
  | Frontier_ok of {
      row : Prbp_wire.Wire.frontier;
      baseline : Prbp_wire.Wire.frontier;
    }
  | Frontier_regressed of {
      row : Prbp_wire.Wire.frontier;
      baseline : Prbp_wire.Wire.frontier;
      what : string;  (** which gate tripped, human-readable *)
    }
  | Frontier_new of Prbp_wire.Wire.frontier
      (** no baseline with the same family and game (the game label
          carries the processor count) *)

val check_frontiers :
  ?slack_pct:int ->
  baseline:Prbp_wire.Wire.frontier list ->
  Prbp_wire.Wire.frontier list ->
  frontier_verdict list
(** One verdict per current row: a case regresses when it settles
    fewer points than the baseline, leaves more intervals open, or its
    summed width ({!Prbp_wire.Wire.frontier_width}) grows past the same
    slack rule as {!check}. *)

val pp_frontier_verdict : Format.formatter -> frontier_verdict -> unit

val frontier_regressed : frontier_verdict list -> bool
(** [true] iff some verdict is {!Frontier_regressed}. *)

(** {1 Convergence curves} *)

type curve_verdict =
  | Curve_ok of {
      row : Prbp_wire.Wire.bracket;
      time_to_final : float;  (** when the final certified point landed *)
    }
  | Curve_bad of { row : Prbp_wire.Wire.bracket; what : string }

val check_curve : Prbp_wire.Wire.bracket -> curve_verdict
(** Structural gate over one bracket's convergence curve: non-empty,
    {!Prbp_solver.Solver.Convergence.monotone}, and its final point
    equal to the certified bracket [(lower, Some upper)].  Deliberately
    compares no timings against a baseline — wall-clock curve shapes
    wobble run to run, their invariants do not. *)

val pp_curve_verdict : Format.formatter -> curve_verdict -> unit

val curves_regressed : curve_verdict list -> bool
(** [true] iff some verdict is {!Curve_bad}. *)
