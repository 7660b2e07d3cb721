(** The COMMSET benchmark. One process runs one workload for a fixed
    time from a seed and prints its metrics; [run.py] builds this
    executable, sets the environment (synthetic burn off, a private
    codegen cache) and adds the traced/untraced comparison.

    Workloads (see README.md for why each exists and what it loads):
    - [compile]: [Pipeline.compile ~verify:true] + [Pipeline.evaluate
      ~threads:8] of the eight bundled programs, closed loop;
    - [exec] / [exec_codegen]: alternating sequential ([Pipeline.serve_request])
      and parallel ([Realexec.run]) runs of every program with an executable
      plan at [nproc - 1] worker domains, interpreted or compiled bodies;
    - [serve]: an open-loop client over one Unix socket to a
      [commsetc serve] daemon at two fixed rates, then a saturation leg.

    Everything is driven through public library functions and the
    daemon's wire protocol; nothing inside the program is changed or
    instrumented. Per-layer timings come from timers around those calls
    in a traced run ([--trace 1]). *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module T = Commset_transforms
module A = Commset_analysis
module Pdg = Commset_pdg.Pdg
module Exec = Commset_exec.Exec
module Realexec = Commset_exec.Realexec
module Equiv = Commset_exec.Equiv
module Codegen = Commset_codegen.Codegen
module Proto = Commset_serve.Proto
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module Clock = Commset_obs.Clock
module Stats = Perfbench_stats.Stats

(* taken at module initialisation: set-up time counts from here *)
let process_start = Clock.now_ns ()
let now_ms () = Clock.now_ns () /. 1e6

(* ------------------------------------------------------------------ *)
(* Arguments and run-wide state                                        *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  commsetc : string;  (** daemon binary (serve workload) *)
  state : string;  (** benchmark-owned scratch directory in the checkout *)
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload compile|exec|exec_codegen|serve --seed N --seconds S \
     --trace 0|1 --commsetc PATH --state DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int seconds;
    traced;
    commsetc = get "commsetc";
    state = get "state";
  }

let nproc = Domain.recommended_domain_count ()

(* worker domains for exec and serve: one core stays with the coordinator *)
let workers = max 1 (nproc - 1)

(* A parallel run on [workers] worker domains plus a coordinator cannot
   be more than [workers + 1] times faster than the sequential run. A
   sample's speedup is the program's median sequential CPU time over the
   sample's parallel wall time; one above [speedup_bound] is a
   measurement fault and counts as a failed operation. The tolerance
   covers run-to-run spread of the parallel wall: on a 2-core box single
   potrace samples reach 1.6x on one worker. *)
let physics_tolerance = 0.5

let speedup_bound = float_of_int (workers + 1) *. (1. +. physics_tolerance)

(* Every checked operation; a failure never contributes a sample. *)
let attempted = ref 0
let failures = ref []

let attempt () = incr attempted

let fail fmt =
  Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* Gated times are CPU times. On a shared host the hypervisor steals
   time from the VM: on a 2-vCPU VM steal reached 20% of wall time and
   moved wall-clock medians by 2x between runs of the same code, while
   CPU time (which excludes stolen time) held within a few percent.
   Wall times are still measured and printed as rows. *)

(** CPU seconds of this process (every domain, joined or live) and of its
    waited-for children (codegen compiler runs, stopped daemons). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let cpu_ms () = cpu_s () *. 1e3

(** CPU seconds of a live child process, from [/proc/<pid>/stat]. *)
let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
  (* fields after the parenthesised command name; utime and stime are
     the 14th and 15th fields, in clock ticks of 1/100 s *)
  let after = String.rindex line ')' + 2 in
  let rest = String.sub line after (String.length line - after) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* set-up repeats per run: set-up time is the median of these *)
let setup_repeats = 3

type setup_time = { setup_cpu_s : float; setup_wall_s : float }

(** Run [f] [setup_repeats] times, calling [cleanup] on each value but
    the last outside the timed intervals; return the last value and the
    median CPU ([cpu], default {!cpu_s}) and wall seconds per repeat.
    The first repeat counts from process start. *)
let repeated_setup ?(cpu = cpu_s) ?(cleanup = ignore) (f : unit -> 'a) : 'a * setup_time =
  let rec go i cpus walls =
    let c0 = if i = 0 then 0. else cpu () in
    let t0 = if i = 0 then process_start else Clock.now_ns () in
    let v = f () in
    let cpus = (cpu () -. c0) :: cpus and walls = ((Clock.now_ns () -. t0) /. 1e9) :: walls in
    if i + 1 = setup_repeats then
      (v, { setup_cpu_s = Stats.median cpus; setup_wall_s = Stats.median walls })
    else begin
      cleanup v;
      go (i + 1) cpus walls
    end
  in
  go 0 [] []

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
            kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  find ()

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Samples and metric rows                                             *)
(* ------------------------------------------------------------------ *)

(** Per-program sample series keyed by metric name. *)
type series = (string, float list ref) Hashtbl.t

let add (s : series) k v =
  match Hashtbl.find_opt s k with Some r -> r := v :: !r | None -> Hashtbl.add s k (ref [ v ])

let samples (s : series) k = match Hashtbl.find_opt s k with Some r -> !r | None -> []
let med (s : series) k = match samples s k with [] -> 0. | xs -> Stats.median xs

(** Printed rows: every metric by name and unit, wall-clock ones
    included; the last stdout line carries only the gated metrics. *)
let row name value unit = Printf.printf "metric %-32s %14.6f %s\n" name value unit

let program_row prog name xs unit =
  match xs with
  | [] -> Printf.printf "program %-8s %-12s no samples\n" prog name
  | _ ->
      let q1, q2, q3 = Stats.quartiles xs in
      Printf.printf "program %-8s %-12s median %10.4f q1 %10.4f q3 %10.4f %s n=%d\n" prog name
        q2 q1 q3 unit (List.length xs)

(** Contract metrics of one run; see README.md for the per-workload meaning. *)
type e2e = { setup : setup_time; peak_rss_mb : float; op_cpu_ms : float }

(* per-layer metrics: name, unit; a layer the workload leaves idle reads 0 *)
let layer_metrics =
  [
    ("lang.parse_ms", "ms"); ("lang.typecheck_ms", "ms"); ("ir.lower_ms", "ms");
    ("ir.instrs", "count"); ("analysis.effects_ms", "ms"); ("analysis.loop_ms", "ms");
    ("core.metadata_ms", "ms"); ("core.dep_analysis_ms", "ms"); ("core.uco", "count");
    ("core.ico", "count"); ("pdg.build_ms", "ms"); ("pdg.nodes", "count");
    ("pdg.edges", "count"); ("pdg.planctx_ms", "ms"); ("transforms.sync_ms", "ms");
    ("transforms.plans_ms", "ms"); ("verify.run_ms", "ms"); ("verify.proved", "count");
    ("verify.unknown", "count"); ("verify.refuted", "count"); ("runtime.prepare_ms", "ms");
    ("runtime.profile_ms", "ms"); ("runtime.trace_ms", "ms"); ("runtime.simulate_ms", "ms");
    ("runtime.sim_plans", "count"); ("pipeline.compile_ms", "ms");
    ("pipeline.stage_cover", "ratio"); ("runtime.seq_ms", "ms"); ("runtime.seq_steps", "count");
    ("transforms.emit_ms", "ms"); ("exec.par_ms", "ms"); ("exec.engine_par_ms", "ms");
    ("exec.spawn_setup_ms", "ms"); ("exec.iterations", "count"); ("exec.steps", "count");
    ("exec.step_inflation", "ratio"); ("exec.compute_inflation", "ratio");
    ("exec.lock_contended", "count"); ("exec.frontier_waits", "count");
    ("exec.queue_empty_waits", "count"); ("exec.queue_full_waits", "count");
    ("exec.buffered", "count"); ("exec.merge_ms", "ms"); ("exec.equiv_ms", "ms");
    ("exec.wait.dispatch_ms", "ms"); ("exec.wait.lock_ms", "ms");
    ("exec.wait.frontier_ms", "ms"); ("exec.builtin_ms", "ms"); ("exec.compute_ms", "ms");
    ("exec.coord_busy_frac", "ratio"); ("codegen.build_ms", "ms");
    ("codegen.cache_hit_frac", "ratio"); ("codegen.fallbacks", "count");
    ("serve.queue_ms.p50", "ms"); ("serve.queue_ms.p95", "ms"); ("serve.service_ms.p50", "ms");
    ("serve.service_ms.p95", "ms"); ("serve.wire_ms.p50", "ms");
    ("serve.cache_hit_frac", "ratio"); ("serve.cold_ms", "ms"); ("serve.gen_late_ms.max", "ms");
    ("serve.backlog_max", "count"); ("serve.digest_mismatch", "count");
  ]

(** Sum over programs of each program's median: a layer's time or count
    per round over all programs. *)
let sum_of_medians (progs : series list) k = List.fold_left (fun acc s -> acc +. med s k) 0. progs

(** Geomean over programs of a per-program median ratio (programs with
    no sample for it skipped). *)
let geomean_of_medians (progs : series list) k =
  match List.filter (fun x -> x > 0.) (List.map (fun s -> med s k) progs) with
  | [] -> 0.
  | xs -> Stats.geomean xs

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

(** What one compile + plan selection produced. Identical on every pass,
    and identical between [Pipeline.compile] and the stage replay. *)
type artifacts = {
  nodes : int;
  edges : int;
  uco : int;
  ico : int;
  proved : int;
  unknown : int;
  refuted : int;
  plan : string;
}

let artifacts_of (c : P.t) (runs : P.run list) =
  let v f = match c.P.verification with Some r -> f r | None -> -1 in
  {
    nodes = Array.length c.P.target.P.pdg.Pdg.nodes;
    edges = List.length c.P.target.P.pdg.Pdg.edges;
    uco = c.P.target.P.n_uco;
    ico = c.P.target.P.n_ico;
    proved = v Commset_verify.Verdict.n_proved;
    unknown = v Commset_verify.Verdict.n_unknown;
    refuted = v Commset_verify.Verdict.n_refuted;
    plan = (match runs with r :: _ -> r.P.plan.T.Plan.label | [] -> "<none>");
  }

let show_artifacts a =
  Printf.sprintf "pdg %d/%d uco %d ico %d verdicts %d/%d/%d plan %s" a.nodes a.edges a.uco
    a.ico a.proved a.unknown a.refuted a.plan

let plan_threads = 8

(** The untraced operation: compile with the sanitizer, then select the
    best plan at eight threads. Also returns the CPU ms of the compile
    alone. *)
let compile_op (w : W.t) =
  let c0 = cpu_ms () in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup ~verify:true w.W.source in
  let compile_cpu = cpu_ms () -. c0 in
  (c, P.evaluate c ~threads:plan_threads, compile_cpu)

(** [Pipeline.compile]'s stages replayed one public call at a time, in
    its order, each one's CPU ms recorded into [s]; then plans and
    simulation. *)
let replay_op (s : series) (w : W.t) =
  let timed k f =
    let c0 = cpu_ms () in
    let v = f () in
    add s k (cpu_ms () -. c0);
    v
  in
  let lookup = R.Builtins.lookup_spec in
  let fresh () =
    let m = R.Machine.create () in
    w.W.setup m;
    m
  in
  let ast =
    timed "lang.parse_ms" (fun () -> Commset_lang.Parser.parse_program ~file:w.W.wname w.W.source)
  in
  let tcenv =
    timed "lang.typecheck_ms" (fun () ->
        Commset_lang.Typecheck.check ~externs:R.Builtins.extern_sigs ast)
  in
  let prog = timed "ir.lower_ms" (fun () -> Commset_ir.Lower.lower_program ast) in
  let effects = timed "analysis.effects_ms" (fun () -> A.Effects.analyze lookup prog) in
  let md, commset_graph =
    timed "core.metadata_ms" (fun () ->
        let md = Commset_core.Metadata.build prog tcenv effects in
        (md, Commset_core.Wellformed.check md ~lookup))
  in
  let prepared = timed "runtime.prepare_ms" (fun () -> R.Precompile.prepare prog) in
  let profile =
    timed "runtime.profile_ms" (fun () -> R.Profile.analyze ~machine:(fresh ()) ~prepared prog)
  in
  let hot = Option.get (R.Profile.hottest profile) in
  let func, cfg, dom, post, loop, induction, priv, reaching =
    timed "analysis.loop_ms" (fun () ->
        let func = Option.get (Commset_ir.Ir.find_func prog hot.R.Profile.lr_func) in
        let cfg = A.Cfg.of_func func in
        let dom = A.Dominance.compute cfg in
        let post = A.Dominance.compute_post cfg in
        let loop =
          Option.get
            (A.Loops.find_by_header (A.Loops.compute cfg dom) hot.R.Profile.lr_header)
        in
        let induction = A.Induction.compute func cfg dom loop in
        let priv = A.Privatization.compute effects lookup func loop in
        (func, cfg, dom, post, loop, induction, priv, A.Reaching.compute cfg loop))
  in
  let pdg, pdg_plain =
    timed "pdg.build_ms" (fun () ->
        let input =
          {
            Commset_pdg.Builder.func; cfg; dom; post; loop; effects; lookup; priv; induction;
            reaching;
          }
        in
        let pdg = Commset_pdg.Builder.build input in
        (pdg, Commset_pdg.Builder.build input))
  in
  let trace =
    timed "runtime.trace_ms" (fun () ->
        let trace, _ = R.Trace.record ~machine:(fresh ()) ~prepared prog pdg in
        R.Trace.apply_weights trace pdg;
        R.Trace.apply_weights trace pdg_plain;
        trace)
  in
  let n_uco, n_ico =
    timed "core.dep_analysis_ms" (fun () ->
        Commset_core.Dep_analysis.annotate md pdg dom induction)
  in
  let sync, sync_none =
    timed "transforms.sync_ms" (fun () ->
        (T.Sync.compute md pdg trace priv, T.Sync.none md))
  in
  let verification =
    timed "verify.run_ms" (fun () ->
        Commset_verify.Verify.run ~prepared ~md ~target_fname:func.Commset_ir.Ir.fname ~loop
          ~induction ~setup:w.W.setup ())
  in
  let ctx pdg =
    {
      P.reductions = Commset_pdg.Reduction.detect pdg;
      scc = Commset_pdg.Scc.compute pdg ~edges:(Pdg.effective_edges pdg);
    }
  in
  let plan_ctx_comm, plan_ctx_plain = timed "pdg.planctx_ms" (fun () -> (ctx pdg, ctx pdg_plain)) in
  let c =
    {
      P.name = w.W.wname; source = w.W.source; ast; tcenv; prog; prepared; effects; md;
      commset_graph; profile;
      target =
        { P.func; cfg; dom; post; loop; induction; priv; reaching; pdg; pdg_plain; n_uco; n_ico };
      trace; sync; sync_none; plan_ctx_comm; plan_ctx_plain; setup = w.W.setup;
      verification = Some verification;
    }
  in
  let plans = timed "transforms.plans_ms" (fun () -> P.plans c ~threads:plan_threads) in
  let runs =
    timed "runtime.simulate_ms" (fun () ->
        Commset_support.Pool.parmap (P.simulate c) plans
        |> List.stable_sort (fun (a : P.run) b -> compare b.P.speedup a.P.speedup))
  in
  add s "runtime.sim_plans" (float_of_int (List.length plans));
  let instrs = ref 0 in
  Hashtbl.iter
    (fun _ f -> Commset_ir.Ir.iter_instrs f (fun _ _ -> incr instrs))
    prog.Commset_ir.Ir.funcs;
  add s "ir.instrs" (float_of_int !instrs);
  (c, runs)

let compile_stages =
  [
    "lang.parse_ms"; "lang.typecheck_ms"; "ir.lower_ms"; "analysis.effects_ms";
    "core.metadata_ms"; "runtime.prepare_ms"; "runtime.profile_ms"; "analysis.loop_ms";
    "pdg.build_ms"; "runtime.trace_ms"; "core.dep_analysis_ms"; "transforms.sync_ms";
    "verify.run_ms"; "pdg.planctx_ms";
  ]

let run_compile args =
  let progs = Array.of_list Registry.all in
  (* set-up: one warm-up compile per program, outside the timed window;
     its artifacts are the reference every later pass must reproduce *)
  let reference, setup =
    repeated_setup (fun () ->
        Array.map
          (fun w ->
            attempt ();
            let c, runs, _ = compile_op w in
            artifacts_of c runs)
          progs)
  in
  let series = Array.map (fun _ -> Hashtbl.create 32) progs in
  let rng = Random.State.make [| args.seed; 0xc0 |] in
  let check i what a =
    a = reference.(i)
    || begin
         fail "compile %s: %s artifacts %s differ from %s" progs.(i).W.wname what
           (show_artifacts a) (show_artifacts reference.(i));
         false
       end
  in
  let timed f =
    let t0 = now_ms () and c0 = cpu_ms () in
    let v = f () in
    (v, now_ms () -. t0, cpu_ms () -. c0)
  in
  let record s (wall, cpu) =
    add s "op" wall;
    add s "op_cpu" cpu
  in
  let t_end = Clock.now_ns () +. (args.seconds *. 1e9) in
  while Clock.now_ns () < t_end do
    Array.iter
      (fun i ->
        let w = progs.(i) and s = series.(i) in
        attempt ();
        let (c, runs, compile_cpu), wall, cpu = timed (fun () -> compile_op w) in
        let a = artifacts_of c runs in
        if args.traced then begin
          (* the untraced compile gives the stage-cover denominator and
             the cross-check; the instrumented replay is the operation *)
          add s "pipeline.compile_ms" compile_cpu;
          attempt ();
          let (c', runs'), wall', cpu' = timed (fun () -> replay_op s w) in
          let a' = artifacts_of c' runs' in
          if check i "Pipeline.compile" a && check i "replayed" a' then begin
            record s (wall', cpu');
            add s "core.uco" (float_of_int a'.uco);
            add s "core.ico" (float_of_int a'.ico);
            add s "pdg.nodes" (float_of_int a'.nodes);
            add s "pdg.edges" (float_of_int a'.edges);
            add s "verify.proved" (float_of_int a'.proved);
            add s "verify.unknown" (float_of_int a'.unknown);
            add s "verify.refuted" (float_of_int a'.refuted)
          end
        end
        else if check i "compile" a then record s (wall, cpu))
      (shuffle rng (Array.init (Array.length progs) Fun.id))
  done;
  let s = Array.to_list series in
  Array.iteri
    (fun i w ->
      program_row w.W.wname "compile_ms" (samples series.(i) "op") "ms";
      program_row w.W.wname "compile_cpu" (samples series.(i) "op_cpu") "ms")
    progs;
  let geo k = Stats.geomean (List.map (fun s -> med s k) s) in
  let compile_cpu_ms = geo "op_cpu" in
  row "compile_ms.geomean" (geo "op") "ms";
  row "compile_cpu_ms.geomean" compile_cpu_ms "ms";
  let layers =
    if not args.traced then []
    else
      let stages = List.fold_left (fun acc k -> acc +. sum_of_medians s k) 0. compile_stages in
      let whole = sum_of_medians s "pipeline.compile_ms" in
      ("pipeline.stage_cover", stages /. whole)
      :: List.map
           (fun k -> (k, sum_of_medians s k))
           ("pipeline.compile_ms" :: "transforms.plans_ms" :: "runtime.simulate_ms"
           :: "runtime.sim_plans" :: "ir.instrs" :: "core.uco" :: "core.ico" :: "pdg.nodes"
           :: "pdg.edges" :: "verify.proved" :: "verify.unknown" :: "verify.refuted"
           :: compile_stages)
  in
  ({ setup; peak_rss_mb = vm_hwm_mb "self"; op_cpu_ms = compile_cpu_ms }, layers)

(* ------------------------------------------------------------------ *)
(* exec / exec_codegen                                                *)
(* ------------------------------------------------------------------ *)

type prepared_prog = {
  pw : W.t;
  pc : P.t;
  pplan : T.Plan.t;
  ppdg : Pdg.t;
  pemitted : T.Emit.t;
  psv : P.service;
  preference : string list;
  pcommutative : string -> bool;
}

let prepare_prog (w : W.t) : prepared_prog option =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match
    List.find_opt
      (fun (r : P.run) -> Result.is_ok (Exec.supported r.P.plan))
      (P.evaluate c ~threads:workers)
  with
  | None -> None
  | Some best ->
      let plan = best.P.plan in
      let comm = plan.T.Plan.uses_commset in
      let pdg = if comm then c.P.target.P.pdg else c.P.target.P.pdg_plain in
      let sync = if comm then c.P.sync else c.P.sync_none in
      let sv =
        {
          P.sv_key = P.content_key w.W.source; sv_name = w.W.wname; sv_compiled = c;
          sv_threads = workers; sv_best = Some best; sv_compile_s = 0.;
        }
      in
      (* the benchmark's own sequential reference *)
      let reference = P.serve_request sv in
      if reference <> c.P.trace.R.Trace.seq_outputs then
        fail "exec %s: sequential reference differs from the compile-time trace" w.W.wname;
      Some
        {
          pw = w; pc = c; pplan = plan; ppdg = pdg;
          pemitted = T.Emit.emit ~plan ~pdg ~trace:c.P.trace; psv = sv;
          preference = reference;
          pcommutative = Equiv.commutative_outputs ~sync ~trace:c.P.trace;
        }

let par_run ~codegen ~attrib p =
  Realexec.run ~codegen ~attrib ~plan:p.pplan ~pdg:p.ppdg ~trace:p.pc.P.trace
    ~emitted:p.pemitted ~prepared:p.pc.P.prepared ~setup:p.pw.W.setup ~jobs:workers ()

(** One checked sequential leg: (wall, CPU) ms, or [None] on a failure. In the
    traced run the same work goes through an explicit executor so its
    retired-instruction count is visible. *)
let seq_leg ~traced (s : series) p =
  attempt ();
  let t0 = now_ms () and c0 = cpu_ms () in
  let outs, steps =
    if not traced then (P.serve_request p.psv, 0)
    else
      let machine = R.Machine.create () in
      p.pw.W.setup machine;
      let ex = R.Precompile.executor ~machine p.pc.P.prepared in
      ignore (R.Precompile.run_main ex : float);
      (R.Machine.outputs machine, R.Precompile.steps ex)
  in
  let dt = now_ms () -. t0 and cpu = cpu_ms () -. c0 in
  if outs <> p.preference then (
    fail "exec %s: sequential run output differs from the reference" p.pw.W.wname;
    None)
  else begin
    if traced then add s "runtime.seq_steps" (float_of_int steps);
    Some (dt, cpu)
  end

(** One checked parallel run: (wall, CPU) ms, or [None] on a failure. *)
let par_leg ~codegen ~traced (s : series) p =
  attempt ();
  let name = p.pw.W.wname in
  if traced then begin
    let t0 = now_ms () in
    ignore (T.Emit.emit ~plan:p.pplan ~pdg:p.ppdg ~trace:p.pc.P.trace : T.Emit.t);
    add s "transforms.emit_ms" (now_ms () -. t0)
  end;
  let t0 = now_ms () and c0 = cpu_ms () in
  match par_run ~codegen ~attrib:traced p with
  | exception e ->
      fail "exec %s: parallel run raised %s" name (Printexc.to_string e);
      None
  | Error why ->
      fail "exec %s: real engine refused the loop: %s" name why;
      None
  | Ok r -> (
      let dt = now_ms () -. t0 and cpu = cpu_ms () -. c0 in
      let t1 = now_ms () in
      let verdict =
        Equiv.check ~commutative:p.pcommutative ~reference:p.preference
          ~actual:r.Realexec.r_outputs
      in
      let equiv_ms = now_ms () -. t1 in
      let want = if codegen then "codegen" else "real" in
      if codegen then begin
        add s "codegen.compile_ms" (r.Realexec.r_codegen_compile_s *. 1e3);
        add s "codegen.hit" (if r.Realexec.r_codegen_cache_hit then 1. else 0.);
        if r.Realexec.r_codegen_fallback <> None then add s "codegen.fallbacks" 1.
      end;
      match (verdict, r.Realexec.r_codegen_fallback) with
      | Equiv.Mismatch, _ ->
          fail "exec %s: parallel output MISMATCH against the reference" name;
          None
      | _, Some why ->
          fail "exec %s: codegen fell back to the interpreter: %s" name why;
          None
      | _ when r.Realexec.r_engine <> want ->
          fail "exec %s: engine %s ran, %s requested" name r.Realexec.r_engine want;
          None
      | _ ->
          if traced then begin
            let f k v = add s k v in
            let steps = float_of_int r.Realexec.r_steps in
            f "exec.engine_par_ms" (r.Realexec.r_wall_par_s *. 1e3);
            f "exec.spawn_setup_ms" (dt -. (r.Realexec.r_wall_par_s *. 1e3));
            f "exec.iterations" (float_of_int r.Realexec.r_iterations);
            f "exec.steps" steps;
            f "exec.lock_contended" (float_of_int r.Realexec.r_lock_contended);
            f "exec.frontier_waits" (float_of_int r.Realexec.r_frontier_waits);
            f "exec.queue_empty_waits" (float_of_int r.Realexec.r_queue_empty_waits);
            f "exec.queue_full_waits" (float_of_int r.Realexec.r_queue_full_waits);
            f "exec.buffered" (float_of_int r.Realexec.r_buffered);
            f "exec.merge_ms" (r.Realexec.r_merge_s *. 1e3);
            f "exec.equiv_ms" equiv_ms;
            f "exec.par_ns_per_step" (r.Realexec.r_wall_par_s *. 1e9 /. Float.max 1. steps);
            match r.Realexec.r_attrib with
            | None -> ()
            | Some a ->
                let module At = Commset_obs.Attrib in
                f "exec.wait.dispatch_ms" (a.At.a_dispatch_ns /. 1e6);
                f "exec.wait.lock_ms" (a.At.a_lock_ns /. 1e6);
                f "exec.wait.frontier_ms" (a.At.a_frontier_ns /. 1e6);
                f "exec.builtin_ms" (a.At.a_builtin_ns /. 1e6);
                f "exec.compute_ms" (a.At.a_compute_ns /. 1e6);
                f "exec.coord_busy_frac" a.At.a_coord.At.k_utilization
          end;
          Some (dt, cpu))

let run_exec ~codegen args =
  let cache = Filename.concat args.state "codegen-cache" in
  let progs, setup =
    repeated_setup (fun () ->
        if codegen then begin
          (* a cold plugin cache every time: set-up pays the native builds *)
          if Sys.file_exists cache then
            Array.iter
              (fun f ->
                let f = Filename.concat cache f in
                if not (Sys.is_directory f) then Sys.remove f)
              (Sys.readdir cache);
          Codegen.reset_memo ()
        end;
        List.filter_map
          (fun w ->
            match prepare_prog w with
            | None -> None
            | Some p ->
                (* checked warm-up legs outside the timed window; the
                   first codegen run builds the plugin *)
                let s = Hashtbl.create 4 in
                ignore (seq_leg ~traced:false s p);
                Option.map
                  (fun _ -> (p, med s "codegen.compile_ms"))
                  (par_leg ~codegen ~traced:false s p))
          Registry.all)
  in
  let build_ms = List.fold_left (fun acc (_, b) -> acc +. b) 0. progs in
  let progs = Array.of_list (List.map fst progs) in
  List.iter
    (fun (w : W.t) ->
      if not (Array.exists (fun p -> p.pw == w) progs) then
        Printf.printf "program %-8s excluded: no executable plan at %d worker domain(s)\n"
          w.W.wname workers)
    Registry.all;
  let series = Array.map (fun _ -> Hashtbl.create 32) progs in
  let rng = Random.State.make [| args.seed; 0xe0 |] in
  let t_end = Clock.now_ns () +. (args.seconds *. 1e9) in
  let round = ref 0 in
  while Clock.now_ns () < t_end do
    Array.iteri
      (fun k i ->
        let p = progs.(i) and s = series.(i) in
        let seq () = seq_leg ~traced:args.traced s p in
        let par () = par_leg ~codegen ~traced:args.traced s p in
        let sq, pr =
          if (!round + k) mod 2 = 0 then
            let a = seq () in
            (a, par ())
          else
            let b = par () in
            (seq (), b)
        in
        Option.iter
          (fun (wall, cpu) ->
            add s "seq" wall;
            add s "seq_cpu" cpu)
          sq;
        Option.iter
          (fun (wall, cpu) ->
            add s "par" wall;
            add s "par_cpu" cpu)
          pr)
      (shuffle rng (Array.init (Array.length progs) Fun.id));
    incr round
  done;
  (* the physics gate, against the median sequential CPU time: neither a
     burst of stolen time nor one slow sequential leg (a major GC slice)
     can read as a speedup *)
  Array.iteri
    (fun i s ->
      let seq_cpu = med s "seq_cpu" in
      let plausible, implausible =
        List.partition
          (fun (wall, _) -> seq_cpu /. wall <= speedup_bound)
          (List.combine (samples s "par") (samples s "par_cpu"))
      in
      List.iter
        (fun (wall, _) ->
          fail "exec %s: implausible speedup %.2fx on %d worker(s) (bound %.2fx)"
            progs.(i).pw.W.wname (seq_cpu /. wall) workers speedup_bound)
        implausible;
      Hashtbl.replace s "par" (ref (List.map fst plausible));
      Hashtbl.replace s "par_cpu" (ref (List.map snd plausible)))
    series;
  let s = Array.to_list series in
  let speedups = List.map (fun s -> med s "seq" /. med s "par") s in
  Array.iteri
    (fun i p ->
      List.iter
        (fun k -> program_row p.pw.W.wname (k ^ "_ms") (samples series.(i) k) "ms")
        [ "par"; "seq"; "par_cpu"; "seq_cpu" ];
      Printf.printf "program %-8s plan %s\n" p.pw.W.wname p.pplan.T.Plan.label)
    progs;
  let geo k = Stats.geomean (List.map (fun s -> med s k) s) in
  row "exec_ms.geomean" (geo "par") "ms";
  row "seq_ms.geomean" (geo "seq") "ms";
  row "speedup.geomean" (Stats.geomean speedups) "x";
  row "exec_cpu_ms.geomean" (geo "par_cpu") "ms";
  row "seq_cpu_ms.geomean" (geo "seq_cpu") "ms";
  let layers =
    if not args.traced then []
    else
      let sum k = (k, sum_of_medians s k) in
      let seq_ns_per_step s = med s "seq" *. 1e6 /. Float.max 1. (med s "runtime.seq_steps") in
      List.iter
        (fun s ->
          add s "compute_inflation" (med s "exec.par_ns_per_step" /. seq_ns_per_step s);
          add s "step_inflation" (med s "exec.steps" /. med s "runtime.seq_steps"))
        s;
      let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
      let hits = List.concat_map (fun s -> samples s "codegen.hit") s in
      [
        ("runtime.seq_ms", sum_of_medians s "seq");
        sum "runtime.seq_steps";
        sum "transforms.emit_ms";
        ("exec.par_ms", sum_of_medians s "par");
        sum "exec.engine_par_ms";
        sum "exec.spawn_setup_ms";
        sum "exec.iterations";
        sum "exec.steps";
        ("exec.step_inflation", geomean_of_medians s "step_inflation");
        ("exec.compute_inflation", geomean_of_medians s "compute_inflation");
        sum "exec.lock_contended";
        sum "exec.frontier_waits";
        sum "exec.queue_empty_waits";
        sum "exec.queue_full_waits";
        sum "exec.buffered";
        sum "exec.merge_ms";
        sum "exec.equiv_ms";
        sum "exec.wait.dispatch_ms";
        sum "exec.wait.lock_ms";
        sum "exec.wait.frontier_ms";
        sum "exec.builtin_ms";
        sum "exec.compute_ms";
        ("exec.coord_busy_frac", mean (List.map (fun s -> med s "exec.coord_busy_frac") s));
        ("codegen.build_ms", build_ms);
        ("codegen.cache_hit_frac", mean hits);
        ( "codegen.fallbacks",
          float_of_int (List.length (List.concat_map (fun s -> samples s "codegen.fallbacks") s)) );
      ]
  in
  ({ setup; peak_rss_mb = vm_hwm_mb "self"; op_cpu_ms = geo "par_cpu" }, layers)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* One block of the request mix: short programs (md5sum, geti, a few ms
   each) and long ones (url, potrace, hmmer, tens of ms). Every block of
   a schedule is a seeded permutation of it, so every seed offers the
   same composition in a different order and arrival pattern. *)
let mix_block =
  [| "md5sum"; "md5sum"; "md5sum"; "geti"; "geti"; "geti"; "url"; "potrace"; "hmmer" |]

let mix_names = [ "md5sum"; "geti"; "url"; "potrace"; "hmmer" ]

(* Fixed absolute offered rates, requests/s: about 1/2 and 4/5 of the
   daemon's saturation throughput on this mix at the benchmark's
   introduction (2-core box, one worker domain). They stay fixed so a
   faster daemon shows as lower latency at the same load. *)
let rate_lo = 36.
let rate_hi = 57.

(* legs as shares of --seconds: low rate, high rate, saturation; at 15 s
   the low leg sends 216 requests, enough for a p95 with 10 beyond it *)
let share_lo = 0.4
let share_hi = 0.35
let share_sat = 0.25

(** Open-loop arrivals: one request per slot of [1/rate] seconds, at a
    uniformly drawn instant inside its slot. The offered rate is exact
    and arrivals never react to completions. *)
let schedule rng ~rate ~duration =
  let n = int_of_float (rate *. duration) in
  let block = ref [||] in
  Array.init n (fun k ->
      let b = k mod Array.length mix_block in
      if b = 0 then block := shuffle rng mix_block;
      ((float_of_int k +. Random.State.float rng 1.) /. rate, !block.(b)))

(** MD5 of the sequential output stream, computed with the reference
    interpreter — the digest every response must carry. *)
let reference_digest name =
  let w = Option.get (Registry.find name) in
  let ast = Commset_lang.Parser.parse_program ~file:name w.W.source in
  ignore (Commset_lang.Typecheck.check ~externs:R.Builtins.extern_sigs ast);
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = R.Machine.create () in
  w.W.setup machine;
  ignore (R.Interp.run_main (R.Interp.create ~machine prog) : float);
  Digest.to_hex (Digest.string (String.concat "\n" (R.Machine.outputs machine)))

type daemon = { pid : int; fd : Unix.file_descr; framer : Proto.Framer.t }

(* a daemon still running at exit is stopped there *)
let live_daemon = ref None

let () =
  at_exit (fun () ->
      match !live_daemon with
      | Some pid -> (
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
      | None -> ())

let start_daemon args =
  let sock = Filename.concat args.state "serve.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat args.state "serve.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let env =
    if args.traced then
      Array.append
        [| "COMMSET_TRACE=" ^ Filename.concat args.state "serve-trace.json" |]
        (Unix.environment ())
    else Unix.environment ()
  in
  let pid =
    Unix.create_process_env args.commsetc
      [| args.commsetc; "serve"; "--socket"; sock; "--jobs"; string_of_int workers |]
      env Unix.stdin log log
  in
  Unix.close log;
  live_daemon := Some pid;
  let deadline = Clock.now_ns () +. 60e9 in
  let rec connect () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live_daemon := None;
            failwith "serve: daemon exited before listening (see serve.log)");
        if Clock.now_ns () > deadline then failwith "serve: daemon did not listen within 60s";
        Unix.sleepf 0.005;
        connect ()
  in
  { pid; fd = connect (); framer = Proto.Framer.create () }

(** Stop the daemon; returns its high-water RSS in MB. *)
let stop_daemon d =
  let rss = vm_hwm_mb (string_of_int d.pid) in
  Unix.close d.fd;
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  live_daemon := None;
  rss

type sample = {
  sm_name : string;
  sm_total_ms : float;  (** intended send time to response *)
  sm_wire_ms : float;  (** actual send to response, minus daemon queue and service *)
  sm_queue_ms : float;
  sm_service_ms : float;
  sm_hit : bool;
  sm_recv : float;  (** ns *)
}

type client = {
  d : daemon;
  digests : (string, string) Hashtbl.t;
  pending : (int, string * float * float) Hashtbl.t;  (** id -> name, intended, sent *)
  mutable next_id : int;
  mutable backlog_max : int;
  mutable digest_mismatch : int;
}

let send c name ~intended =
  attempt ();
  c.next_id <- c.next_id + 1;
  let sent = Clock.now_ns () in
  Proto.send_frame c.d.fd
    (Proto.request_to_json
       { Proto.rq_id = c.next_id; rq_workload = Some name; rq_source = None; rq_echo = false });
  Hashtbl.replace c.pending c.next_id (name, intended, sent);
  c.backlog_max <- max c.backlog_max (Hashtbl.length c.pending);
  sent

let buf = Bytes.create 65536

(** Wait up to [timeout_s] for responses; check each and hand the good
    ones to [on_sample]. *)
let receive c ~timeout_s ~on_sample =
  match Unix.select [ c.d.fd ] [] [] (Float.max 0. timeout_s) with
  | [], _, _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | _ ->
      let n = Unix.read c.d.fd buf 0 (Bytes.length buf) in
      if n = 0 then failwith "serve: daemon closed the connection";
      let recv = Clock.now_ns () in
      List.iter
        (fun payload ->
          match Proto.response_of_json payload with
          | Error e -> fail "serve: unparsable response: %s" e
          | Ok rs -> (
              match Hashtbl.find_opt c.pending rs.Proto.rs_id with
              | None -> fail "serve: response for unknown request %d" rs.Proto.rs_id
              | Some (name, intended, sent) ->
                  Hashtbl.remove c.pending rs.Proto.rs_id;
                  if rs.Proto.rs_error <> None then
                    fail "serve %s: error response: %s" name (Option.get rs.Proto.rs_error)
                  else if rs.Proto.rs_digest <> Hashtbl.find c.digests name then begin
                    c.digest_mismatch <- c.digest_mismatch + 1;
                    fail "serve %s: digest %s, reference %s" name rs.Proto.rs_digest
                      (Hashtbl.find c.digests name)
                  end
                  else
                    let queue_ms = rs.Proto.rs_queue_us /. 1e3
                    and service_ms = rs.Proto.rs_service_us /. 1e3 in
                    on_sample
                      {
                        sm_name = name;
                        sm_total_ms = (recv -. intended) /. 1e6;
                        sm_wire_ms = ((recv -. sent) /. 1e6) -. queue_ms -. service_ms;
                        sm_queue_ms = queue_ms;
                        sm_service_ms = service_ms;
                        sm_hit = rs.Proto.rs_hit;
                        sm_recv = recv;
                      }))
        (Proto.Framer.feed c.d.framer buf n)

let drain c ~on_sample =
  let deadline = Clock.now_ns () +. 60e9 in
  while Hashtbl.length c.pending > 0 do
    if Clock.now_ns () > deadline then failwith "serve: responses missing after 60s";
    receive c ~timeout_s:0.5 ~on_sample
  done

(** Send [sched] open loop; returns the samples and each send's lateness (ms). *)
let open_leg c sched =
  let samples = ref [] and late = ref [] in
  let on_sample s = samples := s :: !samples in
  let t0 = Clock.now_ns () +. 20e6 in
  let n = Array.length sched in
  let due i = t0 +. (fst sched.(i) *. 1e9) in
  let i = ref 0 in
  while !i < n do
    while !i < n && due !i <= Clock.now_ns () do
      let intended = due !i in
      let sent = send c (snd sched.(!i)) ~intended in
      late := ((sent -. intended) /. 1e6) :: !late;
      incr i
    done;
    if !i < n then receive c ~timeout_s:((due !i -. Clock.now_ns ()) /. 1e9) ~on_sample
  done;
  drain c ~on_sample;
  (!samples, !late)

(** Keep a standing backlog of [depth] requests for [duration] seconds;
    completions per second over the window after a short ramp. *)
let saturation_leg c rng ~duration =
  let depth = (2 * workers) + 2 in
  let recvs = ref [] in
  let on_sample s = recvs := s :: !recvs in
  let t0 = Clock.now_ns () in
  let t_end = t0 +. (duration *. 1e9) in
  let t_window = t0 +. (0.1 *. duration *. 1e9) in
  let block = ref [||] and k = ref 0 in
  let next () =
    if !k mod Array.length mix_block = 0 then block := shuffle rng mix_block;
    let name = !block.(!k mod Array.length mix_block) in
    incr k;
    name
  in
  while Clock.now_ns () < t_end do
    while Hashtbl.length c.pending < depth do
      ignore (send c (next ()) ~intended:(Clock.now_ns ()) : float)
    done;
    receive c ~timeout_s:((t_end -. Clock.now_ns ()) /. 1e9) ~on_sample
  done;
  let in_window = List.filter (fun s -> s.sm_recv >= t_window && s.sm_recv < t_end) !recvs in
  drain c ~on_sample:ignore;
  (float_of_int (List.length in_window) /. ((t_end -. t_window) /. 1e9), in_window)

let pct ~p xs =
  match Stats.percentile ~p xs with
  | Ok v -> v
  | Error e ->
      fail "serve: %s" e;
      0.

let run_serve args =
  let rng_for leg = Random.State.make [| args.seed; 0x5e; leg |] in
  let d_lo = share_lo *. args.seconds
  and d_hi = share_hi *. args.seconds
  and d_sat = share_sat *. args.seconds in
  let sched_lo = schedule (rng_for 1) ~rate:rate_lo ~duration:d_lo
  and sched_hi = schedule (rng_for 2) ~rate:rate_hi ~duration:d_hi in
  (* same seed, same schedule *)
  if
    sched_lo <> schedule (rng_for 1) ~rate:rate_lo ~duration:d_lo
    || sched_hi <> schedule (rng_for 2) ~rate:rate_hi ~duration:d_hi
  then fail "serve: the generator is not deterministic in its seed";
  (* set-up CPU: this client plus the live daemon (compiles happen there) *)
  let live = ref None in
  let cpu () = cpu_s () +. match !live with Some pid -> proc_cpu_s pid | None -> 0. in
  let (c, cold_ms), setup =
    repeated_setup ~cpu
      ~cleanup:(fun (c, _) ->
        ignore (stop_daemon c.d : float);
        live := None)
      (fun () ->
        let digests = Hashtbl.create 8 in
        List.iter (fun n -> Hashtbl.replace digests n (reference_digest n)) mix_names;
        let c =
          {
            d = start_daemon args; digests; pending = Hashtbl.create 64; next_id = 0;
            backlog_max = 0; digest_mismatch = 0;
          }
        in
        live := Some c.d.pid;
        (* warm-up, closed loop: the first request per program compiles
           it in the daemon (a plan-cache miss), the next two hit *)
        let cold = ref 0. in
        for pass = 0 to 2 do
          List.iter
            (fun name ->
              ignore (send c name ~intended:(Clock.now_ns ()) : float);
              drain c ~on_sample:(fun s ->
                  if pass = 0 then cold := !cold +. s.sm_total_ms;
                  if s.sm_hit = (pass = 0) then
                    fail "serve %s: warm-up pass %d cache %s" name pass
                      (if s.sm_hit then "hit" else "miss")))
            mix_names
        done;
        (c, !cold))
  in
  (* daemon CPU per request over each leg *)
  let leg_cpu f =
    let c0 = proc_cpu_s c.d.pid and n0 = c.next_id in
    let v = f () in
    (v, (proc_cpu_s c.d.pid -. c0) *. 1e3, c.next_id - n0)
  in
  let (lo, late_lo), cpu_lo, n_lo = leg_cpu (fun () -> open_leg c sched_lo) in
  let (hi, late_hi), cpu_hi, n_hi = leg_cpu (fun () -> open_leg c sched_hi) in
  let (saturation, sat), cpu_sat, n_sat =
    leg_cpu (fun () -> saturation_leg c (rng_for 3) ~duration:d_sat)
  in
  let request_cpu_ms = (cpu_lo +. cpu_hi +. cpu_sat) /. float_of_int (n_lo + n_hi + n_sat) in
  row "serve.lo.cpu_ms_per_request" (cpu_lo /. float_of_int n_lo) "ms";
  row "serve.hi.cpu_ms_per_request" (cpu_hi /. float_of_int n_hi) "ms";
  row "serve.sat.cpu_ms_per_request" (cpu_sat /. float_of_int n_sat) "ms";
  List.iter
    (fun name ->
      let of_leg leg f =
        List.filter_map (fun s -> if s.sm_name = name then Some (f s) else None) leg
      in
      program_row name "lo.total_ms" (of_leg lo (fun s -> s.sm_total_ms)) "ms";
      program_row name "hi.total_ms" (of_leg hi (fun s -> s.sm_total_ms)) "ms";
      program_row name "service_ms" (of_leg (lo @ hi @ sat) (fun s -> s.sm_service_ms)) "ms")
    mix_names;
  let peak_rss_mb = stop_daemon c.d in
  let total xs = List.map (fun s -> s.sm_total_ms) xs in
  let lo_p50 = pct ~p:50. (total lo) and lo_p95 = pct ~p:95. (total lo) in
  let hi_p50 = pct ~p:50. (total hi) and hi_p95 = pct ~p:95. (total hi) in
  row "serve.saturation_rps" saturation "req/s";
  row "serve.lo.total_ms.p50" lo_p50 "ms";
  row "serve.lo.total_ms.p95" lo_p95 "ms";
  row "serve.hi.total_ms.p50" hi_p50 "ms";
  row "serve.hi.total_ms.p95" hi_p95 "ms";
  Printf.printf "serve offered %.0f/s for %.1fs (%d requests) and %.0f/s for %.1fs (%d requests)\n"
    rate_lo d_lo (List.length lo) rate_hi d_hi (List.length hi);
  let layers =
    if not args.traced then []
    else
      let timed = lo @ hi in
      [
        ("serve.queue_ms.p50", pct ~p:50. (List.map (fun s -> s.sm_queue_ms) hi));
        ("serve.queue_ms.p95", pct ~p:95. (List.map (fun s -> s.sm_queue_ms) hi));
        ("serve.service_ms.p50", pct ~p:50. (List.map (fun s -> s.sm_service_ms) lo));
        ("serve.service_ms.p95", pct ~p:95. (List.map (fun s -> s.sm_service_ms) lo));
        ("serve.wire_ms.p50", pct ~p:50. (List.map (fun s -> s.sm_wire_ms) lo));
        ( "serve.cache_hit_frac",
          float_of_int (List.length (List.filter (fun s -> s.sm_hit) timed))
          /. float_of_int (max 1 (List.length timed)) );
        ("serve.cold_ms", cold_ms);
        ("serve.gen_late_ms.max", List.fold_left Float.max 0. (late_lo @ late_hi));
        ("serve.backlog_max", float_of_int c.backlog_max);
        ("serve.digest_mismatch", float_of_int c.digest_mismatch);
      ]
  in
  ({ setup; peak_rss_mb; op_cpu_ms = request_cpu_ms }, layers)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    fail "non-finite metric value";
    "0"
  end

let () =
  let args = parse_args () in
  (* measured time must be program execution only: the caller turns the
     engines' synthetic cycle burning off through the environment *)
  if R.Costmodel.exec_ns_per_cycle () <> 0. then begin
    prerr_endline "bench: COMMSET_EXEC_NS_PER_CYCLE must be 0 (synthetic burn off)";
    exit 2
  end;
  (* busy domains: exec = coordinator + workers; serve adds this client
     to the daemon's coordinator and workers *)
  let busy =
    match args.workload with
    | "serve" -> workers + 2
    | "exec" | "exec_codegen" -> workers + 1
    | _ -> nproc
  in
  Printf.printf "env nproc %d worker_domains %d busy_domains %d oversubscribed %b\n" nproc workers
    busy (busy > nproc);
  Printf.printf "env physics_tolerance %.2f (speedup bound %.2fx)\n" physics_tolerance
    speedup_bound;
  let e2e, layers =
    try
      match args.workload with
      | "compile" -> run_compile args
      | "exec" -> run_exec ~codegen:false args
      | "exec_codegen" -> run_exec ~codegen:true args
      | "serve" -> run_serve args
      | _ -> usage ()
    with e ->
      Printf.eprintf "bench: %s failed: %s\n%!" args.workload (Printexc.to_string e);
      exit 1
  in
  let failed = List.length !failures in
  List.iter (fun m -> Printf.eprintf "FAILED: %s\n" m) (List.rev !failures);
  row "setup_wall_s" e2e.setup.setup_wall_s "s";
  row "failed_frac" (float_of_int failed /. float_of_int (max 1 !attempted)) "ratio";
  let e2e_metrics =
    [
      ("setup_s", e2e.setup.setup_cpu_s, "s"); ("peak_rss_mb", e2e.peak_rss_mb, "MB");
      ("op_cpu_ms", e2e.op_cpu_ms, "ms");
    ]
  in
  List.iter (fun (k, v, unit) -> row k v unit) e2e_metrics;
  let layer_values =
    if not args.traced then []
    else
      List.map
        (fun (k, unit) ->
          let v = Option.value ~default:0. (List.assoc_opt k layers) in
          row k v unit;
          (k, v, unit))
        layer_metrics
  in
  let metrics =
    List.map
      (fun (k, v, unit) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (json_num v) unit)
      (e2e_metrics @ layer_values)
  in
  let failed = List.length !failures in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0)
    (max 1 !attempted) failed (String.concat ", " metrics);
  print_newline ();
  exit (if failed = 0 then 0 else 1)
