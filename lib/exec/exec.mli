(** The real multicore execution backend: runs a parallelization plan on
    actual OCaml 5 domains instead of the discrete-event simulator, in
    one of two engines.

    {b Real engine} (default): executes the prepared program itself —
    the coordinator domain runs the whole program and dispatches every
    target-loop iteration's live register file to worker domains, which
    execute the full iteration body against the shared machine, with
    commset locks, an iteration frontier for value-carrying dependences,
    per-domain buffering of order-free updates, and calibrated CPU work
    realizing the cost model's cycles ({!Realexec}). When
    {!Commset_runtime.Precompile.plan_real} refuses the loop shape, the
    run is refused with a CS014 diagnostic carrying the reason.

    {b Codegen engine} ([Codegen_engine], [--engine=codegen]): the real
    engine with the iteration body compiled to native OCaml
    ({!Commset_codegen.Codegen}) instead of interpreted — same
    coordinator/worker split, locks, frontier and buffering, with
    straight-line compiled code inside each iteration. When translation,
    the toolchain or dynlinking fails, the run degrades to the
    interpreted real engine and reports why in [x_engine_reason].

    Every run performs a mandatory output-equivalence check: a fresh
    sequential execution of the prepared program is the reference, and
    the parallel output must match it exactly — up to multiset order for
    outputs the commset annotations declare commutative ({!Equiv}).

    TM and speculative plans are rejected ({!supported}): software
    transactions exist only in the simulator's optimistic model; there
    is no STM to run them on.

    Observability: the run, the sequential reference and every worker
    are wrapped in flight-recorder spans (category ["exec"]); the
    [exec.*] metrics record runs, contended acquires, queue and frontier
    waits, buffered updates, worker instructions retired and merge-phase
    timings (real concurrency measurements, no cross-run determinism
    promise). *)

module Plan = Commset_transforms.Plan
module Sync = Commset_transforms.Sync
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime

(** Which realization executes the plan's target loop. *)
type engine = Real_engine | Codegen_engine

val engine_name : engine -> string

(** ["real"] / ["codegen"] (the CLI flag values). *)
val engine_of_string : string -> engine option

(** Worker-domain count to use when the caller does not pin one:
    [Domain.recommended_domain_count () - 1] (one domain is the
    coordinator), at least 1. *)
val default_jobs : unit -> int

type stats = {
  x_label : string;  (** the executed plan's label *)
  x_engine : string;
      (** engine that actually ran: ["codegen"] or ["real"] (after a
          codegen fallback this differs from the requested engine) *)
  x_threads : int;  (** worker domains occupied *)
  x_wall_seq_s : float;
      (** sequential leg: a timed fresh sequential run (execution +
          calibrated work) *)
  x_wall_par_s : float;  (** parallel leg, spawn/join barriers excluded *)
  x_measured_speedup : float;  (** [x_wall_seq_s /. x_wall_par_s] *)
  x_verdict : Equiv.verdict;
  x_lock_contended : int;
  x_queue_full_waits : int;  (** blocking episodes on full queues/rings *)
  x_queue_empty_waits : int;  (** blocking episodes on empty queues/rings *)
  x_iterations : int;  (** loop iterations dispatched to workers *)
  x_frontier_waits : int;  (** frontier blocking episodes *)
  x_buffered_updates : int;  (** updates buffered per-domain *)
  x_steps : int;  (** instructions retired, all domains *)
  x_merge_s : float;  (** merge-phase seconds *)
  x_outputs : string list;  (** the parallel run's full output stream *)
  x_engine_reason : string option;
      (** when [x_engine] differs from the requested engine: why the
          codegen run fell back (toolchain, shape) *)
  x_codegen_cache_hit : bool;
      (** codegen engine: compiled body reused from the cache *)
  x_codegen_compile_s : float;
      (** codegen engine: compiler seconds spent this run (0 on hits) *)
  x_attrib : Commset_obs.Attrib.summary option;
      (** per-cause attribution of worker iteration wall time and
          coordinator utilization ({!Commset_obs.Attrib}); [None] with
          [~attrib:false] *)
  x_compute_inflation : float option;
      (** with attribution: worker ns per charged
          cycle over the sequential leg's ns per charged cycle. Worker ns
          is iteration wall net of lock and frontier waits (the
          [compute] and [builtin] causes), so 1.0 means a worker executes
          a cycle of program work as fast as the sequential run; above
          1.0 is interpretation or memory overhead specific to workers.
          [None] when [x_attrib] is *)
}

(** Can this plan run on the real backend? [Error reason] for TM and
    speculative variants. *)
val supported : Plan.t -> (unit, string) result

(** Execute [plan] on real domains. [engine] defaults to [Real_engine];
    [jobs] (worker domains) defaults to {!default_jobs}. Raises a CS014
    {!Diag.Error} for unsupported plans and for target loops whose shape
    {!Commset_runtime.Precompile.plan_real} refuses, and an internal
    error if the fresh sequential reference diverges from the recorded
    trace. [pdg], [trace] and [sync] must come from
    the same compilation as [prepared]; [setup] prepares each fresh
    machine. [attrib] (default [true]) controls the per-iteration
    attribution layer; pass [false] for
    zero-overhead measurement runs. *)
val run :
  ?engine:engine ->
  ?jobs:int ->
  ?attrib:bool ->
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  sync:Sync.t ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  unit ->
  stats
