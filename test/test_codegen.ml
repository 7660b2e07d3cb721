(** Tests for the miniC→OCaml codegen backend: the differential suite
    pins [~engine:Codegen_engine] and asserts every workload's every
    executable plan actually ran compiled (no silent fallback to the
    interpreted real engine) and matched the sequential reference at
    jobs 1, 2 and 4; codegen-vs-interpreter cross-checks compare
    outputs and retired instruction counts on the same compilation; the
    cache tests cover warm in-process hits and recovery from a
    corrupted on-disk [.cmxs]; and a qcheck property compiles random
    small loop bodies and checks the generated code agrees with
    {!Commset_runtime.Precompile.run_iteration} (the interpreted real
    engine) on outputs and steps. Per workload, the interpreted and
    compiled node-transition streams match a per-instruction reference,
    on the raw node map and, per executable plan, on the map with the
    plan's inert nodes folded out. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime
module Exec = Commset_exec.Exec
module Pdg = Commset_pdg.Pdg
module Loops = Commset_analysis.Loops
module Codegen = Commset_codegen.Codegen

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- engine selection API ---- *)

let test_engine_names () =
  check Alcotest.string "codegen" "codegen"
    (Exec.engine_name Exec.Codegen_engine);
  check Alcotest.bool "of_string codegen" true
    (Exec.engine_of_string "codegen" = Some Exec.Codegen_engine);
  check Alcotest.bool "of_string junk" true
    (Exec.engine_of_string "jit" = None)

(* ---- differential suite: explicit codegen engine, no fallback ---- *)

let codegen_all_plans (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  List.iter
    (fun jobs ->
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine:Exec.Codegen_engine ~jobs c plan in
          (if x.P.xstats.Exec.x_engine <> "codegen" then
             let why =
               Option.value ~default:"(no reason)"
                 x.P.xstats.Exec.x_engine_reason
             in
             Alcotest.failf "%s: %s at %d job(s): fell back to %s: %s" w.W.wname
               plan.T.Plan.label jobs x.P.xstats.Exec.x_engine why);
          if x.P.xfidelity = P.Mismatch then
            Alcotest.failf "%s: %s at %d job(s): output mismatch" w.W.wname
              plan.T.Plan.label jobs;
          check Alcotest.bool
            (Printf.sprintf "%s at %d job(s): iterations executed"
               plan.T.Plan.label jobs)
            true
            (x.P.xstats.Exec.x_iterations > 0))
        (P.executable_plans c ~threads:jobs))
    [ 1; 2; 4 ]

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: codegen engine, no fallback, jobs 1/2/4" w.W.wname)
        `Quick (codegen_all_plans w))
    Registry.all

(* ---- codegen vs interpreted real engine on one compilation ---- *)

let test_codegen_vs_real () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan at 2 jobs"
  | plan :: _ ->
      let real = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
      let cg = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      check Alcotest.string "real engine ran" "real" real.P.xstats.Exec.x_engine;
      check Alcotest.string "codegen engine ran" "codegen"
        cg.P.xstats.Exec.x_engine;
      check Alcotest.bool "real matches reference" true
        (real.P.xfidelity <> P.Mismatch);
      check Alcotest.bool "codegen matches reference" true
        (cg.P.xfidelity <> P.Mismatch);
      (* fuel accounting is exact: compiled bodies retire precisely the
         interpreter's steps, so the all-domain totals agree *)
      check Alcotest.int "instructions retired agree"
        real.P.xstats.Exec.x_steps cg.P.xstats.Exec.x_steps;
      let sorted l = List.sort String.compare l in
      check
        Alcotest.(list string)
        "codegen and real output multisets agree"
        (sorted real.P.xstats.Exec.x_outputs)
        (sorted cg.P.xstats.Exec.x_outputs)

(* ---- cache behaviour ---- *)

(* Two runs of the same compilation in one process: the second must be
   an in-process cache hit with zero compile seconds, and agree with the
   first on outputs. (The first run may itself hit the on-disk cache
   from an earlier test binary run — only the warm run is asserted.) *)
let test_cache_warm_agrees () =
  let w = Option.get (Registry.find "geti") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan at 2 jobs"
  | plan :: _ ->
      let cold = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      let warm = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      check Alcotest.string "cold ran compiled" "codegen"
        cold.P.xstats.Exec.x_engine;
      check Alcotest.string "warm ran compiled" "codegen"
        warm.P.xstats.Exec.x_engine;
      check Alcotest.bool "warm run is a cache hit" true
        warm.P.xstats.Exec.x_codegen_cache_hit;
      check (Alcotest.float 1e-9) "warm run spends no compiler time" 0.
        warm.P.xstats.Exec.x_codegen_compile_s;
      let sorted l = List.sort String.compare l in
      check
        Alcotest.(list string)
        "cold and warm output multisets agree"
        (sorted cold.P.xstats.Exec.x_outputs)
        (sorted warm.P.xstats.Exec.x_outputs)

let nid_of_iid pdg iid =
  match Pdg.node_of_instr pdg iid with Some nid -> nid | None -> -1

(* The executor's coordinator/worker split of one concrete program,
   before the run folds inert nodes out of its node map. *)
let rtarget (c : P.t) =
  match Commset_exec.Realexec.target ~prepared:c.P.prepared ~pdg:c.P.target.P.pdg with
  | Ok rt -> rt
  | Error why -> Alcotest.failf "plan_real refused the loop: %s" why

(* Replicate the executor's translation entry to reach the cache paths
   of one concrete program. *)
let rt_and_source (c : P.t) =
  let rt = rtarget c in
  let src =
    match Codegen.source ~prepared:c.P.prepared ~rt () with
    | Ok src -> src
    | Error why -> Alcotest.failf "uncompilable body: %s" why
  in
  (rt, src)

let remove_if_exists p = try Sys.remove p with Sys_error _ -> ()

(* A corrupted on-disk [.cmxs] must not poison the engine: the loader
   evicts the entry and recompiles from source, once. The corruption is
   seeded in a private cache directory at a path this process never
   successfully dlopened — dlopen dedupes by pathname, so corrupting a
   previously loaded path would just serve the old healthy mapping
   instead of reading the corrupted file. *)
let test_corrupted_cache_recompiles () =
  let w = Option.get (Registry.find "url") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let rt, src = rt_and_source c in
  let key = Codegen.key_of_source src in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "commset-cgtest-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let old_cache = Sys.getenv_opt "COMMSET_CODEGEN_CACHE" in
  Unix.putenv "COMMSET_CODEGEN_CACHE" dir;
  Fun.protect ~finally:(fun () ->
      Unix.putenv "COMMSET_CODEGEN_CACHE" (Option.value ~default:"" old_cache);
      Codegen.reset_memo ())
  @@ fun () ->
  let ml, cmxs = Codegen.cache_paths ~key in
  remove_if_exists ml;
  remove_if_exists cmxs;
  let oc = open_out_bin cmxs in
  output_string oc "not a cmxs";
  close_out oc;
  Codegen.reset_memo ();
  let prepare () =
    match Codegen.prepare ~prepared:c.P.prepared ~rt () with
    | Ok cg -> cg
    | Error why -> Alcotest.failf "codegen prepare failed: %s" why
  in
  let healed = prepare () in
  check Alcotest.bool "corrupted entry is recompiled, not reused" false
    healed.Codegen.cg_cache_hit;
  check Alcotest.string "recompile uses the source key" key
    healed.Codegen.cg_key;
  check Alcotest.bool "recompile rewrote the cmxs" true (Sys.file_exists cmxs);
  (* the recompiled entry is valid again: a fresh disk-path load hits *)
  Codegen.reset_memo ();
  let warm = prepare () in
  check Alcotest.bool "healed entry serves a disk cache hit" true
    warm.Codegen.cg_cache_hit

(* ---- node transitions: interpreted, per-instruction, compiled ---- *)

(* One target-loop iteration as a worker sees it: its node-transition
   stream, the fuel steps it retires and the cycles it charges, summed
   from zero in execution order (equal charge sequences give
   bit-identical floats). *)
type iter_obs = { o_nodes : int list; o_steps : int; o_cost : float }

(* The target loop driven sequentially through the coordinator's
   backbone, each iteration executed inline on a fresh worker state by
   [body wst builtin record regs]; [record] collects node ids. Returns
   the iterations, the outputs and the coordinator's own steps and
   cycles. *)
let drive_iterations (c : P.t) rt body =
  let machine = R.Machine.create () in
  c.P.setup machine;
  let ex = R.Precompile.executor ~machine c.P.prepared in
  let builtin (bi : R.Builtins.t) argv ~has_dst:_ = bi.R.Builtins.impl machine argv in
  let obs = ref [] in
  let coord_cost =
    R.Precompile.run_main_real ex rt
      ~on_iter:(fun _ regs ->
        let wst = R.Precompile.worker_state ex ~fuel:max_int in
        let nodes = ref [] in
        body wst builtin (fun nid -> nodes := nid :: !nodes) (Array.copy regs);
        obs :=
          {
            o_nodes = List.rev !nodes;
            o_steps = max_int - R.Precompile.wstate_fuel_left wst;
            o_cost = R.Precompile.wstate_total wst;
          }
          :: !obs)
      ~on_loop_done:ignore
  in
  (List.rev !obs, R.Machine.outputs machine, (R.Precompile.steps ex, coord_cost))

(* The per-instruction reference: a sequential run on the instrumented
   (hook-faithful) path, where every target-function instruction inside
   an iteration is resolved through [Pdg.node_of_instr] and a transition
   is recorded whenever its node differs from the previous one — the
   worker's former per-instruction hook. An iteration runs from a
   body-block entry to the next header entry; steps and costs count at
   every call depth in between. *)
let reference_iterations (c : P.t) (pdg : Pdg.t) =
  let loop = pdg.Pdg.loop in
  let target = pdg.Pdg.func.Commset_ir.Ir.fname in
  let at_target (f : Commset_ir.Ir.func) = String.equal f.Commset_ir.Ir.fname target in
  let h = R.Interp.null_hooks () in
  let obs = ref [] in
  let active = ref false and nodes = ref [] and steps = ref 0 and cost = ref 0. in
  let cur = ref (-1) in
  let close () =
    if !active then
      obs := { o_nodes = List.rev !nodes; o_steps = !steps; o_cost = !cost } :: !obs;
    active := false
  in
  h.R.Interp.on_block <-
    (fun f l ->
      if at_target f && l = loop.Loops.header then close ()
      else begin
        if at_target f && (not !active) && List.mem l loop.Loops.body then begin
          active := true;
          nodes := [];
          steps := 0;
          cost := 0.;
          cur := -1
        end;
        if !active then incr steps
      end);
  h.R.Interp.on_instr <-
    (fun f i ->
      if !active then begin
        incr steps;
        if at_target f then begin
          let nid = nid_of_iid pdg i.Commset_ir.Ir.iid in
          if nid <> !cur then begin
            cur := nid;
            nodes := nid :: !nodes
          end
        end
      end);
  h.R.Interp.on_base_cost <- (fun x -> if !active then cost := !cost +. x);
  h.R.Interp.on_builtin <- (fun _ x -> if !active then cost := !cost +. x);
  let machine = R.Machine.create () in
  c.P.setup machine;
  ignore (R.Precompile.run_main (R.Precompile.executor ~hooks:h ~machine c.P.prepared) : float);
  close ();
  List.rev !obs

(* Both worker bodies over one target: the interpreted [on_node] stream
   and the compiled body's [cg_node] stream, deduplicated as the
   engine's [cg_node] does. *)
let worker_streams (w : W.t) (c : P.t) rt =
  let interp, outs, _ =
    drive_iterations c rt (fun wst builtin record regs ->
        R.Precompile.run_iteration wst rt ~on_node:record ~builtin regs)
  in
  let cg =
    match Codegen.prepare ~prepared:c.P.prepared ~rt () with
    | Ok cg -> cg
    | Error why -> Alcotest.failf "%s: codegen prepare failed: %s" w.W.wname why
  in
  let compiled, _, _ =
    drive_iterations c rt (fun wst builtin record regs ->
        let cur = ref (-1) in
        cg.Codegen.cg_fn
          {
            Commset_codegen.Abi.cg_globals = R.Precompile.wstate_globals wst;
            cg_gdefined = R.Precompile.wstate_gdefined wst;
            cg_node =
              (fun nid ->
                if nid <> !cur then begin
                  cur := nid;
                  record nid
                end);
            cg_builtin = builtin;
            cg_charge = (fun ~steps ~cost -> R.Precompile.wstate_charge wst ~steps ~cost);
            cg_fuel_left = (fun () -> R.Precompile.wstate_fuel_left wst);
          }
          regs)
  in
  (interp, compiled, outs)

(* Each worker body's observations equal the reference's, node stream
   taken through [nodes] (the identity, or the fold of inert nodes). *)
let check_streams ~what ~nodes reference interp compiled =
  let bits x = Int64.bits_of_float x in
  List.iteri
    (fun k ((i, r), g) ->
      let what fmt = Printf.sprintf ("%s iteration %d: " ^^ fmt) what k in
      check Alcotest.(list int) (what "on_node = per-instruction") (nodes r.o_nodes) i.o_nodes;
      check Alcotest.(list int) (what "cg_node = per-instruction") (nodes r.o_nodes) g.o_nodes;
      check Alcotest.int (what "interpreted steps") r.o_steps i.o_steps;
      check Alcotest.int (what "compiled steps") r.o_steps g.o_steps;
      check Alcotest.int64 (what "interpreted charged cycles") (bits r.o_cost) (bits i.o_cost);
      check Alcotest.int64 (what "compiled charged cycles") (bits r.o_cost) (bits g.o_cost))
    (List.combine (List.combine interp reference) compiled)

(* A raw transition stream as a folded node map produces it: inert
   nodes become [-1] and consecutive repeats merge; an iteration starts
   outside any node, so a leading [-1] is no transition. *)
let fold_stream inert nodes =
  List.fold_left
    (fun (cur, acc) nid ->
      let nid = if nid >= 0 && inert nid then -1 else nid in
      if nid = cur then (cur, acc) else (nid, nid :: acc))
    (-1, []) nodes
  |> snd |> List.rev

(* The interpreted worker's [on_node] stream, the per-instruction
   reference and the compiled body's (deduplicated, as the engine's
   [cg_node] does) transition stream agree on every traced iteration,
   as do the steps and the charged cycles each iteration retires. Then,
   for every executable plan, the same holds on the run's folded target
   against the reference stream with the plan's inert nodes folded. *)
let node_transitions_agree (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let interp, compiled, outs = worker_streams w c (rtarget c) in
  let reference = reference_iterations c c.P.target.P.pdg in
  check
    Alcotest.(list string)
    "inline iterations reproduce the sequential output" c.P.trace.R.Trace.seq_outputs outs;
  let n = R.Trace.n_iterations c.P.trace in
  check Alcotest.int "interpreted iterations" n (List.length interp);
  check Alcotest.int "reference iterations" n (List.length reference);
  check Alcotest.int "compiled iterations" n (List.length compiled);
  check_streams ~what:w.W.wname ~nodes:Fun.id reference interp compiled;
  let plain_reference = lazy (reference_iterations c c.P.target.P.pdg_plain) in
  List.iter
    (fun (plan : T.Plan.t) ->
      let rt, ord = Test_realexec.ordering_of c plan in
      let reference =
        if plan.T.Plan.uses_commset then reference else Lazy.force plain_reference
      in
      let interp, compiled, _ = worker_streams w c (Commset_exec.Realexec.fold_inert ord rt) in
      check_streams
        ~what:(w.W.wname ^ " " ^ plan.T.Plan.label)
        ~nodes:(fold_stream (Commset_exec.Realexec.inert ord))
        reference interp compiled)
    (Test_realexec.all_executable_plans c)

let transition_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: node transitions agree (interp/per-instr/compiled)" w.W.wname)
        `Quick (node_transitions_agree w))
    Registry.all

(* ---- coordinator/worker split accounting ---- *)

(* Cycles the split charges per iteration beyond the sequential run: the
   latch's terminator and backbone instructions, which the coordinator
   and the worker both execute. em3d's latch backbone calls a read-only
   builtin. *)
let latch_cycles = [ ("em3d", 25.0) ]

(* The split adds nothing but the latch the coordinator shares with the
   worker: per iteration one block entry plus the latch's backbone
   instructions in steps, and [latch_cycles] in cycles, while the
   outputs equal the sequential run's. *)
let split_accounting (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let rt = rtarget c in
  let iters, outs, (coord_steps, coord_cost) =
    drive_iterations c rt (fun wst builtin _ regs ->
        R.Precompile.run_iteration wst rt ~on_node:ignore ~builtin regs)
  in
  let machine = R.Machine.create () in
  c.P.setup machine;
  let seq = R.Precompile.executor ~machine c.P.prepared in
  let seq_cost = R.Precompile.run_main seq in
  check Alcotest.(list string) "outputs equal the sequential run" (R.Machine.outputs machine) outs;
  let k = List.length iters in
  check Alcotest.bool "iterations dispatched" true (k > 0);
  let latch =
    match c.P.target.P.pdg.Pdg.loop.Loops.latches with
    | [ l ] -> l
    | _ -> Alcotest.fail "expected a single latch"
  in
  let view = R.Precompile.rtarget_view rt in
  let backbone = R.Precompile.rtarget_backbone rt in
  let latch_backbone =
    Array.fold_left
      (fun n (b : R.Precompile.view_block) ->
        if b.R.Precompile.vb_label <> latch then n
        else
          n
          + Array.fold_left
              (fun n (i : Commset_ir.Ir.instr) ->
                if List.mem i.Commset_ir.Ir.iid backbone then n + 1 else n)
              0 b.R.Precompile.vb_instrs)
      0 view.R.Precompile.vf_blocks
  in
  let worker_steps = List.fold_left (fun n o -> n + o.o_steps) 0 iters in
  let worker_cost = List.fold_left (fun x o -> x +. o.o_cost) 0. iters in
  check Alcotest.int "split steps - sequential steps"
    (k * (1 + latch_backbone))
    (coord_steps + worker_steps - R.Precompile.steps seq);
  let per_iter = (coord_cost +. worker_cost -. seq_cost) /. float_of_int k in
  check (Alcotest.float 1e-6) "split cycles - sequential cycles, per iteration"
    (Option.value ~default:3.0 (List.assoc_opt w.W.wname latch_cycles))
    per_iter

let accounting_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: coordinator/worker split accounting" w.W.wname)
        `Quick (split_accounting w))
    Registry.all

(* ---- property: random small loop bodies compile and agree ---- *)

(* Random int expression over the induction variable and constants,
   using only total operators (no division/modulo: both engines would
   trap identically, but a trapping program fails compilation's tracing
   run before any engine comparison happens). *)
type rexpr =
  | Rvar
  | Rconst of int
  | Radd of rexpr * rexpr
  | Rsub of rexpr * rexpr
  | Rmul of rexpr * rexpr

let rec rexpr_to_minic = function
  | Rvar -> "i"
  | Rconst n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Radd (a, b) ->
      Printf.sprintf "(%s + %s)" (rexpr_to_minic a) (rexpr_to_minic b)
  | Rsub (a, b) ->
      Printf.sprintf "(%s - %s)" (rexpr_to_minic a) (rexpr_to_minic b)
  | Rmul (a, b) ->
      Printf.sprintf "(%s * %s)" (rexpr_to_minic a) (rexpr_to_minic b)

let gen_rexpr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ return Rvar; map (fun k -> Rconst k) (int_range (-9) 9) ]
        else
          let sub = self (n / 2) in
          frequency
            [
              (1, return Rvar);
              (1, map (fun k -> Rconst k) (int_range (-9) 9));
              (2, map2 (fun a b -> Radd (a, b)) sub sub);
              (2, map2 (fun a b -> Rsub (a, b)) sub sub);
              (2, map2 (fun a b -> Rmul (a, b)) sub sub);
            ]))

let arb_rexpr = QCheck.make ~print:rexpr_to_minic gen_rexpr

let program_of_rexpr e =
  Printf.sprintf
    {|
#pragma commset decl PSET self
#pragma commset predicate PSET (a) (b) (a != b)

void main() {
  int n = 8;
  for (int i = 0; i < n; i++) {
    int x = %s;
    #pragma commset member PSET(i)
    {
      print(int_to_string(x));
    }
  }
}
|}
    (rexpr_to_minic e)

let prop_random_bodies_agree =
  QCheck.Test.make ~name:"codegen: random loop bodies compile and agree"
    ~count:12 arb_rexpr (fun e ->
      let c = P.compile ~name:"cg-prop" (program_of_rexpr e) in
      match P.executable_plans c ~threads:2 with
      | [] -> QCheck.Test.fail_report "no executable plan"
      | plan :: _ ->
          let real = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
          let cg = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
          if cg.P.xstats.Exec.x_engine <> "codegen" then
            QCheck.Test.fail_reportf "fell back: %s"
              (Option.value ~default:"(no reason)"
                 cg.P.xstats.Exec.x_engine_reason);
          if cg.P.xfidelity = P.Mismatch then
            QCheck.Test.fail_report "codegen output mismatches the reference";
          let sorted l = List.sort String.compare l in
          sorted cg.P.xstats.Exec.x_outputs
          = sorted real.P.xstats.Exec.x_outputs
          && cg.P.xstats.Exec.x_steps = real.P.xstats.Exec.x_steps)

let suite =
  ( "codegen",
    [
      Alcotest.test_case "engine name and parsing" `Quick test_engine_names;
      Alcotest.test_case "codegen vs real agree on md5sum" `Quick
        test_codegen_vs_real;
      Alcotest.test_case "warm cache hit agrees with cold run" `Quick
        test_cache_warm_agrees;
      Alcotest.test_case "corrupted cache entry is recompiled" `Quick
        test_corrupted_cache_recompiles;
      qcheck prop_random_bodies_agree;
    ]
    @ differential_cases @ transition_cases @ accounting_cases )
