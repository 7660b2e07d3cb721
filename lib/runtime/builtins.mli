(** The builtin (extern) functions of miniC, one registry record each.
    A record holds every fact about its builtin: the signature for the
    type checker, the effect specification for the analyses, the
    thread-safety and TM-safety flags for the synchronization engine,
    how a real-engine worker executes a call, its role in an order-free
    update family, its operation class and partitioning key for the
    verifier, and the implementation with its cost function for the
    interpreter. The abstract resources each builtin touches are
    documented in the implementation. *)

module Ast = Commset_lang.Ast
module Effects = Commset_analysis.Effects
module Tc = Commset_lang.Typecheck

type impl = Machine.t -> Value.t list -> Value.t * float

type bitmap_op = Bm_get | Bm_set

(** What a call does to the set of bitmap handles the calling iteration
    allocated (whose payloads a real-engine worker keeps private). *)
type alloc_effect = No_alloc | Bm_new | Bm_free

(** How a real-engine worker executes a call (outside update buffering). *)
type exec_class =
  | Plain  (** touches no shared machine state: runs directly *)
  | Mutexed of alloc_effect  (** touches shared machine state: under the machine mutex *)
  | Ordered
      (** its result depends on every earlier call (a shared cursor or
          seed): an iteration-ordered event behind the frontier. The
          commset annotations promise an order-free final state, not
          order-free return values. *)
  | Bitmap of bitmap_op
      (** lock-free on a handle the calling iteration allocated, else
          ordered *)

(** Role in an order-free update family ({e stats}, {e hist}, ...): any
    interleaving of the writers reaches the same final state once the
    updates are applied in one well-defined order, which the real
    engine's per-domain buffering with an iteration-ordered merge
    guarantees. *)
type family =
  | No_family
  | Writer of string * (Value.t list -> float)
      (** an update of the named family, called for effect; the function
          prices a call, the same price the impl charges *)
  | Reader of string  (** observes the named family's accumulated state *)

type t = {
  id : int;
      (** dense index: the builtin's position in {!all}, so per-run
          tables indexed by [id] replace name lookups on hot paths *)
  name : string;
  params : Ast.ty list;
  ret : Ast.ty;
  spec : Effects.builtin_spec;
  thread_safe : bool;  (** internally synchronized (the paper's Lib mode) *)
  tm_safe : bool;  (** may execute inside a transaction *)
  exec : exec_class;
  family : family;
  vclass : Effects.opclass;
      (** how its writes combine with a concurrent instance's (the
          verifier's differencing); [Opaque name] when unknown *)
  key : (string list * int) option;
      (** resources partitioned by one argument, and that argument's
          position: calls on provably distinct keys touch disjoint state *)
  injective : bool;  (** distinct arguments give distinct results *)
  impl : impl;
}

val all : t list
val find : string -> t option
val find_exn : string -> t

(** Run a [Bitmap] builtin against a payload the caller holds (a
    real-engine worker's private bitmap), with the bit math and charged
    cost of its impl. *)
val bitmap_on_payload : t -> Bytes.t -> Value.t list -> Value.t * float

(** {2 Calibration: measured per-builtin cost scales}

    A calibration profile ({!Calib}) rescales each builtin's charged
    cycle cost by a measured factor. Strictly opt-in: with no profile
    applied every scale is exactly [1.0], the multiplication is skipped,
    and all charged costs (and therefore the paper tables) are
    byte-identical to an uncalibrated build. *)

(** The cost multiplier of one builtin. *)
val cost_scale : t -> float

(** Replace the active scale set with [(builtin name, factor)] pairs;
    unknown names and non-finite or non-positive factors are dropped. A
    set with nothing left deactivates calibration, like
    {!clear_cost_scales}. Only call between runs. *)
val set_cost_scales : (string * float) list -> unit

val clear_cost_scales : unit -> unit

(** Effect lookup for the analyses. *)
val lookup_spec : Effects.lookup

(** Extern signatures for the type checker. *)
val extern_sigs : Tc.extern_sig list

(** Abstract resources a builtin touches (for Lib-mode locking). *)
val resources : t -> string list
