(** True parallel execution of the prepared program on OCaml 5 domains —
    the real backend's engine. It runs the program itself: the
    coordinator domain executes the whole prepared program but only the
    target loop's control backbone ({!Commset_runtime.Precompile.plan_real}), dispatching each
    iteration's live register file over an SPSC ring to one of [jobs]
    worker domains, which execute the full iteration body against the
    shared machine and global slots.

    Correctness is layered:

    - {e commset locks}: workers acquire each node's ranked commset
      locks (the same lock specs the emitter registers) at node entry
      and release them at node exit — mutual exclusion for annotated
      commutative members;
    - {e machine mutex}: every builtin that touches a shared machine
      resource runs under one spin lock, except entry-local operations
      on handles allocated by the same iteration (private bitmaps run
      lock-free on a cached payload); each builtin's execution class is
      on its registry record ({!Commset_runtime.Builtins.exec_class});
    - {e iteration frontier}: value-carrying dependences — carried
      memory dependences through globals/heap (annotated or not) and
      order-sensitive builtins (RNG, DB cursor, packet queue, shared
      bitmaps) — execute in iteration order behind an advancing
      frontier. Expected per-iteration event counts derived from the
      trace release the frontier as early as the last ordered event of
      an iteration, so downstream compute overlaps (DOACROSS); loops
      with uncountable ordered nodes release only at iteration end;
    - {e update buffering}: order-free update families (stats,
      histogram, vector, log; a builtin's family role is on its registry
      record) whose results are not read inside the loop are buffered
      per-domain and replayed in iteration order at loop exit — the
      merged state is bit-identical to sequential execution, float
      accumulation order included;
    - {e output routing}: worker output lines are buffered per-domain
      with monotonic timestamps and merged at loop exit; the mandatory
      equivalence check ({!Equiv}) then compares the full stream
      against a fresh sequential run.

    Workers see node transitions only at nodes with a lock or frontier
    duty: the run folds every other node out of the target's node map
    ({!fold_inert}) before the interpreted or compiled body runs. They
    run on warm leased domains ({!Workers.lease}), parked between runs
    instead of spawned and joined per run.

    Simulated cycles retired by each domain are realized as calibrated
    CPU work ({!Burn}) at {!Commset_runtime.Costmodel.exec_ns_per_cycle}
    nanoseconds per cycle, so measured speedups reflect the cost model's
    work distribution; with the scale set to [0.] the engine exercises
    only semantics and synchronization (differential tests). *)

module Plan = Commset_transforms.Plan
module Emit = Commset_transforms.Emit
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime

type result = {
  r_outputs : string list;  (** the full merged output stream *)
  r_wall_par_s : float;  (** parallel leg, spawn excluded *)
  r_iterations : int;  (** iterations dispatched to workers *)
  r_frontier_waits : int;  (** blocking episodes on the frontier *)
  r_lock_contended : int;  (** commset-lock + machine-mutex contention *)
  r_queue_full_waits : int;  (** coordinator blocked on full rings *)
  r_queue_empty_waits : int;  (** workers blocked on empty rings *)
  r_buffered : int;  (** commutative updates buffered per-domain *)
  r_steps : int;  (** instructions retired across all domains *)
  r_merge_s : float;  (** merge-phase (replay + output) seconds *)
  r_engine : string;
      (** iteration-body engine that actually ran: ["codegen"] when a
          compiled body executed, ["real"] for the interpreter *)
  r_codegen_fallback : string option;
      (** why a requested codegen run degraded to the interpreter *)
  r_codegen_cache_hit : bool;  (** compiled body came from the cache *)
  r_codegen_compile_s : float;  (** compiler seconds spent this run *)
  r_attrib : Commset_obs.Attrib.summary option;
      (** per-cause attribution of worker-iteration wall time (dispatch
          wait, per-commset lock wait, frontier wait, builtin, compute)
          plus coordinator utilization; [None] with [~attrib:false] *)
}

(** {2 Builtin execution policy}

    How a worker executes each builtin call, resolved once per run from
    the builtin registry's records ({!Commset_runtime.Builtins.t}: the
    execution class and the update-family role) and the loop's
    bufferable writers. The worker's per-call path is one array load
    (indexed by [Builtins.t.id]) and a match; the ordering analysis
    reads the same table. *)

type bitmap_op = Commset_runtime.Builtins.bitmap_op = Bm_get | Bm_set

type alloc_effect = Commset_runtime.Builtins.alloc_effect =
  | No_alloc
  | Bm_new
  | Bm_free

type policy =
  | Plain  (** pure or machine-neutral: runs directly, no lock *)
  | Buffered of (Commset_runtime.Value.t list -> float)
      (** order-free update: buffered per worker and replayed at merge;
          the function prices the call (its impl runs later, uncharged) *)
  | Bitmap of bitmap_op
      (** lock-free on a handle this iteration allocated, else ordered *)
  | Ordered  (** iteration-ordered event behind the frontier, mutexed *)
  | Mutexed of alloc_effect  (** under the machine mutex *)

(** The update-family writers safe to buffer per domain and replay at
    loop exit, indexed by [Builtins.t.id]: a family qualifies when the
    loop ([body] of [func], transitively through user callees) calls at
    least one of its writers, uses no writer's result, and calls none of
    its readers; then all its writers are bufferable. *)
val bufferable_updates :
  Commset_ir.Ir.program -> Commset_ir.Ir.func -> Commset_ir.Ir.label list -> bool array

(** The policy of every builtin, indexed by [Builtins.t.id]. [buffered]
    is the loop's {!bufferable_updates}. *)
val policies : buffered:bool array -> policy array

(** {2 Ordering analysis}

    What a worker does at each PDG node of the target loop, resolved
    once per run from the PDG, the plan's commset locks and the
    recorded trace. *)

type ordering = {
  o_ordered : bool array;
      (** nid -> leaving the node is an ordered event (carried
          dependence through shared memory) *)
  o_entry_await : bool array;  (** nid -> await the frontier at node entry *)
  o_node_locks : int array array;  (** nid -> commset lock indices, rank order *)
  o_expected : int array;  (** iteration -> expected ordered-event count *)
  o_counting : bool;
      (** [false]: some ordered node's instance count is unknowable, so
          iterations release the frontier only at their end *)
}

(** The coordinator/worker split of [pdg]'s target loop
    ({!Commset_runtime.Precompile.plan_real} with the PDG's node map). *)
val target :
  prepared:R.Precompile.t -> pdg:Pdg.t -> (R.Precompile.rtarget, string) Stdlib.result

(** The ordering of [plan] over [rt]; [policy] is the run's
    {!policies} table. *)
val analyse :
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  emitted:Emit.t ->
  rt:R.Precompile.rtarget ->
  policy:policy array ->
  ordering

(** Whether entering and leaving node [nid] does nothing but set the
    current node: not ordered, no entry await, no commset lock. *)
val inert : ordering -> int -> bool

(** [rt] with every inert node of the ordering mapped to [-1] in its
    node map ({!Commset_runtime.Precompile.rtarget_map_nids}): the
    target the run's workers and compiled body use, so a node
    transition fires only where a lock or frontier duty is. *)
val fold_inert : ordering -> R.Precompile.rtarget -> R.Precompile.rtarget

(** Merge per-worker buffers (each newest-first, as accumulated) into
    replay order: concatenation of the reversed buffers, stable-sorted
    on the key. Because the sort is stable and — for iteration-keyed
    update buffers — every iteration belongs to exactly one worker, the
    result is independent of how iterations were distributed over
    workers: always the exact sequential order. Exposed for the
    order-insensitivity property test. *)
val merge_order : compare:('k -> 'k -> int) -> ('k * 'a) list array -> ('k * 'a) list

(** Execute [plan]'s target loop for real on [jobs] worker domains plus
    a coordinator. [Error reason] when the loop shape defeats the
    coordinator/worker split ({!Commset_runtime.Precompile.plan_real});
    the caller refuses the run with that reason. [emitted] supplies the
    lock registry; [pdg], [trace] and [emitted] must come from the same
    compilation as [prepared]. Raises whatever a worker iteration raises
    (after every worker's task has ended).

    With [~codegen:true] the iteration body is first translated and
    compiled to native code ({!Commset_codegen.Codegen}) and workers
    run the compiled body instead of
    {!Commset_runtime.Precompile.run_iteration}; translation, toolchain
    or load failures degrade to the interpreted body with the reason in
    [r_codegen_fallback].

    [~attrib] (default [true]) controls the per-iteration attribution
    layer ({!Commset_obs.Attrib}): per-worker cause accumulators fed by
    a few clock reads per iteration and per wait episode, summarized in
    [r_attrib]. Pass [false] to measure the engine with zero
    attribution overhead (the bench harness's overhead gate does). *)
val run :
  ?codegen:bool ->
  ?attrib:bool ->
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  emitted:Emit.t ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  jobs:int ->
  unit ->
  (result, string) Stdlib.result
