(** Memory effect analysis: every instruction is summarized by the sets
    of abstract locations it may read and write; function summaries
    compose bottom-up over the call graph. See DESIGN.md for the
    abstraction (builtin resource effects, name-based array provenance,
    iteration privatization). *)

module Ir = Commset_ir.Ir

(** Provenance of an array value. *)
type source =
  | Sglobal of string  (** arrays reachable from a global *)
  | Sparam of int  (** arrays passed via a parameter of the current function *)
  | Slocal of Ir.reg  (** arrays held in a local register (allocated inside) *)
  | Sunknown

type location =
  | Lglobal of string  (** a global variable cell *)
  | Lheap of source  (** elements of arrays with the given provenance *)
  | Lext of string  (** an abstract resource owned by a builtin *)
  | Lunknown  (** conservative top, conflicts with everything *)

module LocSet : Set.S with type elt = location
module SrcSet : Set.S with type elt = source

type rw = { reads : LocSet.t; writes : LocSet.t }

val rw_empty : rw
val rw_union : rw -> rw -> rw
val add_read : location -> rw -> rw
val add_write : location -> rw -> rw

(** Effect specification of a builtin, supplied by the runtime. *)
type builtin_spec = {
  bs_reads : string list;  (** abstract resources read *)
  bs_writes : string list;  (** abstract resources written *)
  bs_reads_arrays : int list;  (** argument positions whose array elements are read *)
  bs_writes_arrays : int list;  (** argument positions whose array elements are written *)
  bs_allocates : bool;  (** the result is a freshly allocated array *)
}

type lookup = string -> builtin_spec option

type prov = (Ir.reg, SrcSet.t) Hashtbl.t

val prov_of : prov -> Ir.reg -> SrcSet.t

(** Summary of one function's effects, in its own terms. *)
type summary = {
  sm_rw : rw;  (** effects with [Sparam] relative to this function *)
  sm_ret_prov : SrcSet.t;  (** provenance of the returned array, if any *)
  sm_ret_fresh : bool;  (** the returned array is freshly allocated inside *)
}

type t

(** Build effect summaries for every function, bottom-up over the call
    graph with a fixpoint for recursive cycles. *)
val analyze : lookup -> Ir.program -> t

val summary : t -> string -> summary option
val prov_of_func : t -> string -> prov option

(** Effects of one instruction of [fname], in that function's own terms. *)
val instr_rw : t -> fname:string -> Ir.instr -> rw

(** Effects of a set of instructions of [fname]. *)
val instrs_rw : t -> fname:string -> Ir.instr list -> rw

(** Instantiate an effect set expressed in a callee's own terms at a call
    site in [fname] with the given argument operands and destination. *)
val instantiate_rw :
  t -> fname:string -> args:Ir.operand list -> dst:Ir.reg option -> rw -> rw

(** May these two locations denote overlapping state? *)
val locs_conflict : location -> location -> bool

val sets_conflict : LocSet.t -> LocSet.t -> bool

(** Write/write, write/read or read/write overlap. *)
val conflict : rw -> rw -> bool

(** The locations of the first effect set involved in a conflict with the
    second. *)
val conflict_locs : rw -> rw -> LocSet.t

val pp_source : Format.formatter -> source -> unit
val pp_location : Format.formatter -> location -> unit
val pp_rw : Format.formatter -> rw -> unit

(** Extern (builtin) calls reachable from [body], transitively through
    user-defined callees: [(callee, has_dst)] pairs. *)
val loop_extern_calls :
  Ir.program -> Ir.func -> Ir.label list -> (string * bool) list

(** {2 Operation classes}

    How a write combines with a concurrent write to the same location,
    the vocabulary of the verifier's abstract-store differencing. Each
    builtin declares its class in the builtin registry; the verifier
    derives the classes of plain stores and user-function calls. *)
type opclass =
  | Accum of string  (** commutative-associative accumulation *)
  | Multiset of string  (** append to an order-insensitive sink *)
  | Alloc of string  (** allocator bump; equal up to handle renaming *)
  | Cursor of string  (** shared-cursor advance; drawn values exchanged *)
  | Rng  (** pseudo-random stream draw *)
  | Advance of string
      (** deterministic self-update [g = f(g)] of one global: both
          orders leave [f(f(g))], per-instance results exchanged *)
  | Overwrite  (** last-writer-wins store *)
  | Opaque of string  (** no algebraic structure known *)
