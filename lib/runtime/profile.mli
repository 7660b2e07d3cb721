(** Runtime profiler: attributes inclusive simulated cycles to each basic
    block (callee time counted at the call site) and ranks the program's
    loops by execution share — the hot-loop selection step of the paper's
    workflow. *)

module Ir = Commset_ir.Ir

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(** Profile the program and rank its loops by inclusive cost. The
    profiled execution runs [prepared], which must be
    [Precompile.prepare] of the same program, on the coarse path. *)
val analyze : ?machine:Machine.t -> prepared:Precompile.t -> Ir.program -> t

(** The hottest outermost loop — the parallelization target. *)
val hottest : t -> loop_report option
