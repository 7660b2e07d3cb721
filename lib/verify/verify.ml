(** The commutativity annotation verifier: static symbolic differencing
    ({!Static}) followed by dynamic refutation of the surviving
    [Unknown] pairs ({!Dynamic}). *)

module A = Commset_analysis
module Metadata = Commset_core.Metadata
module Machine = Commset_runtime.Machine

let src_log = Logs.Src.create "commset.verify" ~doc:"Commutativity annotation verifier"

module Log = (val Logs.src_log src_log : Logs.LOG)

let run ?(dynamic = true) ?(max_snapshots = 2) ?(max_trials = 3) ~prepared
    ~(md : Metadata.t) ~target_fname ~(loop : A.Loops.loop)
    ~(induction : A.Induction.t) ~(setup : Machine.t -> unit) () :
    Verdict.report =
  let ctx = Static.create ~md ~target_fname ~loop ~induction in
  Log.debug (fun m -> m "static differencing over '%s'" target_fname);
  let report = Static.run ctx in
  Log.debug (fun m ->
      m "static pass: %d proved, %d unknown, %d refuted" (Verdict.n_proved report)
        (Verdict.n_unknown report) (Verdict.n_refuted report));
  if dynamic then begin
    Log.debug (fun m -> m "dynamic replay: refining unknown pairs");
    Dynamic.refine ~max_snapshots ~max_trials ~prepared ~md ~setup report
  end
  else report
