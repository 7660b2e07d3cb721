(** Warm worker domains, in two shapes.

    {b Leased domains} ({!lease}, {!await}) run the real engine's
    per-run workers. A process-wide set of parked domains serves every
    lease: a lease wakes an idle domain, or spawns one when none is
    idle, and the domain parks again when its task returns. A parked
    domain blocks on a [Condition], so it costs no CPU and wakes
    without a sleep quantum; its minor heap stays mapped, so a run no
    longer re-faults a fresh 2 MB minor heap per worker. The set grows
    only to the largest number of tasks ever leased at once, and its
    domains live until the process exits. [Domain.DLS] values survive
    from one task to the next on the same domain: a task that sets one
    resets it before returning.

    {b The serve pool} ({!spawn}, {!submit}, {!shutdown}) is a
    persistent pool of worker domains for request serving: the domains
    are spawned once and reused for every task until {!shutdown} —
    never re-created per request.

    Each worker owns one bounded SPSC task ring fed by the single
    coordinator domain ({!submit} must only ever be called from one
    domain at a time; the serve daemon's accept/generator loop is that
    coordinator). An idle worker parks on its empty ring through the
    adaptive backoff's long-idle tier ({!Spin}), so an idle pool sits
    at ~0% CPU while wakeup latency stays bounded by
    {!Commset_runtime.Costmodel.exec_idle_sleep_cap_s}.

    Tasks are arbitrary closures; an exception escaping a task is
    caught, counted ([w_task_errors]) and logged — one poisoned request
    must not take the daemon down. Ordering: tasks submitted to the
    same worker run in submission order; across workers there is no
    order. *)

(** {2 Leased domains} *)

type lease

(** Run the task on a parked domain, or on a newly spawned one when
    none is idle (counted by the metric [exec.domains_spawned]).
    Returns at once. *)
val lease : (unit -> unit) -> lease

(** Block until the leased task returns; re-raises what it raised.
    Awaiting twice is allowed. *)
val await : lease -> unit

(** {2 Serve pool} *)

type t

(** [spawn ~jobs] starts [jobs] worker domains (at least 1), each
    parked on an empty task ring of [ring] slots (default 256). *)
val spawn : ?ring:int -> jobs:int -> unit -> t

val size : t -> int

(** Enqueue a task on the least-loaded ring (ties broken round-robin).
    Blocks with backoff when every ring is full — the daemon's
    admission bound — counting one backpressure episode. Raises
    [Invalid_argument] after {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** Tasks currently queued across all rings (approximate: racy reads). *)
val pending : t -> int

type stats = {
  w_executed : int;  (** tasks completed across all workers *)
  w_task_errors : int;  (** tasks that raised (caught and dropped) *)
  w_backpressure : int;  (** submit episodes that blocked on full rings *)
}

val stats : t -> stats

(** Drain and stop: every queued task still runs, then each worker
    exits and is joined. Idempotent; [submit] afterwards raises. *)
val shutdown : t -> unit
