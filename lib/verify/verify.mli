(** The commutativity annotation verifier: static symbolic differencing
    followed by dynamic refutation of the surviving [Unknown] pairs. *)

module A = Commset_analysis
module Metadata = Commset_core.Metadata
module Machine = Commset_runtime.Machine

(** Verify every member pair of every commset. [target_fname] and [loop]
    identify the hot loop whose induction facts feed the symbolic
    domain; [setup] prepares the machine for the dynamic engine's
    recording run of [prepared] (disabled with [~dynamic:false]). *)
val run :
  ?dynamic:bool ->
  ?max_snapshots:int ->
  ?max_trials:int ->
  prepared:Commset_runtime.Precompile.t ->
  md:Metadata.t ->
  target_fname:string ->
  loop:A.Loops.loop ->
  induction:A.Induction.t ->
  setup:(Machine.t -> unit) ->
  unit ->
  Verdict.report
