(** Seeded schedule perturbation for the real engine, in the style of
    PCT (Burckhardt et al., "A Randomized Scheduler with Probabilistic
    Guarantees of Finding Bugs", ASPLOS 2010).

    The engine calls {!point} at its scheduling points: a worker's node
    transitions, ordered builtin calls, commset lock acquisitions and
    iteration end, and the coordinator's ring push. A perturbed point
    spins a seeded count of {!Domain.cpu_relax} calls, so the lock,
    queue and merge steps of different domains meet in orders an
    unperturbed run rarely takes. Each domain draws from its own stream
    of the seed and gets a PCT-style priority: a low-priority stream
    waits longer at every point, so one domain consistently trails the
    others instead of all of them jittering alike.

    Perturbation is off unless a seed is set (the differential tests set
    and restore one); off, the engine pays one test per point. *)

(** The process-global seed; [None] (the default) is off. *)
val seed : unit -> int option

(** Set or clear the seed; runs that start afterwards see it. *)
val set_seed : int option -> unit

(** One domain's stream (not thread-safe; one per domain). *)
type t

(** The stream numbered [stream] of the current seed, or [None] when
    perturbation is off. *)
val create : stream:int -> t option

(** One scheduling point: spin a seeded count, possibly zero, of
    {!Domain.cpu_relax} calls. *)
val point : t -> unit

(** Points, process-wide, that spun at least once: evidence that a run
    under a seed was actually perturbed. *)
val fired : unit -> int
