(** Tests for the real-execution engine specifically: the differential
    suite pins [~engine:Real_engine] and asserts that every workload's
    every executable plan actually ran on the real engine and matched
    the sequential reference at jobs 1, 2 and 4; a qcheck property
    establishes that the commutative-update merge is insensitive to how
    iterations were distributed over workers; the per-run builtin policy
    table and every executable plan's ordering analysis are pinned; a
    buffered update is priced exactly like its impl under a calibration
    scale; eclat's workers take node transitions on under 1% of their
    instructions once inert nodes are folded out; and the warm leased
    worker domains are reused across runs, stay clean after a failed
    run and serve concurrent runs. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module Costmodel = Commset_runtime.Costmodel
module Exec = Commset_exec.Exec
module Realexec = Commset_exec.Realexec
module R = Commset_runtime
module Pdg = Commset_pdg.Pdg
module Metrics = Commset_obs.Metrics

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- engine selection API ---- *)

let test_engine_names () =
  check Alcotest.string "real" "real" (Exec.engine_name Exec.Real_engine);
  check Alcotest.string "codegen" "codegen" (Exec.engine_name Exec.Codegen_engine);
  check Alcotest.bool "of_string real" true
    (Exec.engine_of_string "real" = Some Exec.Real_engine);
  check Alcotest.bool "of_string codegen" true
    (Exec.engine_of_string "codegen" = Some Exec.Codegen_engine);
  check Alcotest.bool "of_string burn" true (Exec.engine_of_string "burn" = None);
  check Alcotest.bool "of_string junk" true (Exec.engine_of_string "tm" = None);
  check Alcotest.bool "default_jobs >= 1" true (Exec.default_jobs () >= 1)

(* ---- merge order-insensitivity ---- *)

(* The engine's correctness argument for buffered updates: each
   iteration belongs to exactly one worker, each worker buffers its
   updates newest-first in iteration order, and the coordinator's
   stable sort on the iteration index reproduces the sequential update
   order exactly — independent of which worker ran which iteration.
   Generated here: per-iteration update counts plus an arbitrary
   iteration->worker assignment. *)
let prop_merge_order_insensitive =
  QCheck.Test.make
    ~name:"realexec: buffered-update merge is order-insensitive" ~count:500
    QCheck.(
      pair (int_range 1 6) (small_list (pair (int_range 0 100) (int_range 0 4))))
    (fun (w, iters) ->
      (* iteration k carries [n] updates, labelled (k, j), and is
         assigned to worker [hint mod w] *)
      let seq =
        List.concat
          (List.mapi (fun k (_, n) -> List.init n (fun j -> (k, (k, j)))) iters)
      in
      let bufs = Array.make w [] in
      List.iteri
        (fun k (hint, n) ->
          let wi = hint mod w in
          for j = 0 to n - 1 do
            bufs.(wi) <- (k, (k, j)) :: bufs.(wi)
          done)
        iters;
      Realexec.merge_order ~compare:Int.compare bufs = seq)

(* ---- builtin execution policy ---- *)

let policy_name = function
  | Realexec.Plain -> "plain"
  | Realexec.Buffered _ -> "buffered"
  | Realexec.Bitmap Realexec.Bm_get -> "bitmap get"
  | Realexec.Bitmap Realexec.Bm_set -> "bitmap set"
  | Realexec.Ordered -> "ordered"
  | Realexec.Mutexed Realexec.No_alloc -> "mutexed"
  | Realexec.Mutexed Realexec.Bm_new -> "mutexed bm_new"
  | Realexec.Mutexed Realexec.Bm_free -> "mutexed bm_free"

(* A loop whose order-free update families all qualify for buffering:
   writers called for effect only, no same-family reader in the loop. *)
let buffering_loop =
  {|
void main() {
  for (int i = 0; i < 4; i++) {
    stat_add(1.5);
    hist_add(2.5);
    vec_push(int_to_string(i));
    log_write("entry");
  }
}
|}

(* Pins the resolved per-run policy table: which builtins are ordered,
   privatizable bitmap ops, machine-mutexed and buffered, indexed by
   ids that are dense list positions. *)
let test_policy_table () =
  List.iteri
    (fun i (bi : R.Builtins.t) ->
      check Alcotest.int (Printf.sprintf "%s id = list position" bi.R.Builtins.name) i
        bi.R.Builtins.id)
    R.Builtins.all;
  let c = P.compile ~name:"policy" buffering_loop in
  let pdg = c.P.target.P.pdg in
  let buffered =
    Realexec.bufferable_updates
      (R.Precompile.program c.P.prepared)
      pdg.Pdg.func pdg.Pdg.loop.Commset_analysis.Loops.body
  in
  let table = Realexec.policies ~buffered in
  check Alcotest.int "one policy per builtin" (List.length R.Builtins.all) (Array.length table);
  let expect want name =
    check Alcotest.string name want (policy_name table.((R.Builtins.find_exn name).R.Builtins.id))
  in
  List.iter
    (expect "ordered")
    [ "rng_int"; "rng_range"; "rng_float"; "rng_gauss"; "rng_reseed"; "db_read"; "pkt_dequeue" ];
  expect "bitmap get" "bm_get";
  expect "bitmap set" "bm_set";
  expect "mutexed bm_new" "bm_new";
  expect "mutexed bm_free" "bm_free";
  List.iter (expect "mutexed") [ "graph_set_neighbor"; "graph_set_weight" ];
  List.iter (expect "buffered") [ "stat_add"; "hist_add"; "vec_push"; "log_write" ];
  expect "plain" "int_to_string";
  (* outside a qualifying loop the same writers are machine-mutexed *)
  let unbuffered =
    Realexec.policies ~buffered:(Array.make (List.length R.Builtins.all) false)
  in
  List.iter
    (fun name ->
      check Alcotest.string (name ^ " without buffering") "mutexed"
        (policy_name unbuffered.((R.Builtins.find_exn name).R.Builtins.id)))
    [ "stat_add"; "hist_add"; "vec_push"; "log_write" ]

(* ---- ordering analysis, pinned per executable plan ---- *)

(* Every workload's executable plans at 1, 2 and 4 jobs, once per label. *)
let all_executable_plans (c : P.t) =
  List.fold_left
    (fun acc jobs ->
      List.fold_left
        (fun acc (plan : T.Plan.t) ->
          if List.exists (fun (p : T.Plan.t) -> p.T.Plan.label = plan.T.Plan.label) acc then acc
          else acc @ [ plan ])
        acc
        (P.executable_plans c ~threads:jobs))
    [] [ 1; 2; 4 ]

(* A plan's unfolded target and its ordering, resolved the way
   [Realexec.run] resolves them on the plan's PDG (the plain one when it
   uses no commsets, as [Pipeline.run_parallel] picks). *)
let ordering_of (c : P.t) (plan : T.Plan.t) =
  let pdg = if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain in
  let trace = c.P.trace in
  let rt =
    match Realexec.target ~prepared:c.P.prepared ~pdg with
    | Ok rt -> rt
    | Error why -> Alcotest.failf "%s: target refused: %s" plan.T.Plan.label why
  in
  let buffered =
    Realexec.bufferable_updates (R.Precompile.program c.P.prepared) pdg.Pdg.func
      pdg.Pdg.loop.Commset_analysis.Loops.body
  in
  let o =
    Realexec.analyse ~plan ~pdg ~trace
      ~emitted:(T.Emit.emit ~plan ~pdg ~trace)
      ~rt ~policy:(Realexec.policies ~buffered)
  in
  (rt, o)

(* One plan's ordering: the expected ordered events summed over
   iterations (and a digest of the per-iteration counts), the counting
   mode, and the ordered, entry-await and lock-holding node sets. *)
let ordering_summary (c : P.t) (plan : T.Plan.t) =
  let _, o = ordering_of c plan in
  let nids a =
    Array.to_list a
    |> List.mapi (fun i b -> if b then Some (string_of_int i) else None)
    |> List.filter_map Fun.id |> String.concat ","
  in
  let per_iter =
    String.concat "," (Array.to_list (Array.map string_of_int o.Realexec.o_expected))
  in
  Printf.sprintf "%s: expected=%d (%s) counting=%b ordered=[%s] await=[%s] locked=[%s]"
    plan.T.Plan.label
    (Array.fold_left ( + ) 0 o.Realexec.o_expected)
    (String.sub (Digest.to_hex (Digest.string per_iter)) 0 8)
    o.Realexec.o_counting (nids o.Realexec.o_ordered) (nids o.Realexec.o_entry_await)
    (nids (Array.map (fun row -> row <> [||]) o.Realexec.o_node_locks))

let pinned_orderings =
  [
    "md5sum Comm-DOALL + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "md5sum Comm-DSWP[2] + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "md5sum DSWP[2] + Lib: expected=384 (abb19dcc) counting=true ordered=[3,4,6,7] await=[3,4,6,7] locked=[]";
    "md5sum Comm-DSWP[3] + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "md5sum DSWP[3] + Lib: expected=384 (abb19dcc) counting=true ordered=[3,4,6,7] await=[3,4,6,7] locked=[]";
    "hmmer Comm-DOALL + Mutex: expected=2526 (127c8dba) counting=true ordered=[12] await=[12] locked=[12,21]";
    "hmmer Comm-DOALL + Spin: expected=2526 (127c8dba) counting=true ordered=[12] await=[12] locked=[12,21]";
    "hmmer Comm-DSWP[2] + Lib: expected=2526 (127c8dba) counting=true ordered=[12] await=[12] locked=[]";
    "hmmer DSWP[2] + Lib: expected=3186 (64637c88) counting=true ordered=[12,18,21,22] await=[12,18,21,22] locked=[]";
    "hmmer Comm-DSWP[3] + Lib: expected=2526 (127c8dba) counting=true ordered=[12] await=[12] locked=[]";
    "hmmer Comm-PS-DSWP[S|DOALL:2|S] (seq-sync) + Lib: expected=2526 (127c8dba) counting=true ordered=[12] await=[12] locked=[]";
    "hmmer DSWP[3] + Lib: expected=3186 (64637c88) counting=true ordered=[12,18,21,22] await=[12,18,21,22] locked=[]";
    "geti Comm-DOALL + Mutex: expected=3420 (7890a392) counting=true ordered=[] await=[] locked=[37]";
    "geti Comm-DOALL + Spin: expected=3420 (7890a392) counting=true ordered=[] await=[] locked=[37]";
    "geti Comm-DSWP[2] + Lib: expected=3420 (7890a392) counting=true ordered=[] await=[] locked=[]";
    "geti DSWP[2] + Lib: expected=7380 (926bcd20) counting=true ordered=[8,19,23,37,38] await=[8,19,23,37,38] locked=[]";
    "geti Comm-DSWP[4] + Lib: expected=3420 (7890a392) counting=true ordered=[] await=[] locked=[]";
    "geti Comm-PS-DSWP[DOALL:3|S] (seq-sync) + Lib: expected=3420 (7890a392) counting=true ordered=[] await=[] locked=[]";
    "geti DSWP[4] + Lib: expected=7380 (926bcd20) counting=true ordered=[8,19,23,37,38] await=[8,19,23,37,38] locked=[]";
    "geti PS-DSWP[DOALL:2|S|S] + Lib: expected=7380 (926bcd20) counting=true ordered=[8,19,23,37,38] await=[8,19,23,37,38] locked=[]";
    "eclat Comm-DOALL + Mutex: expected=1122 (31ed2f0f) counting=true ordered=[] await=[3,8,52] locked=[3,8,52,54,56]";
    "eclat Comm-DOALL + Spin: expected=1122 (31ed2f0f) counting=true ordered=[] await=[3,8,52] locked=[3,8,52,54,56]";
    "eclat Comm-DSWP[2] + Lib: expected=1122 (31ed2f0f) counting=true ordered=[] await=[] locked=[]";
    "eclat DSWP[2] + Lib: expected=3532 (a5753234) counting=true ordered=[3,8,51,52,54,56,57] await=[3,8,51,52,54,56,57] locked=[]";
    "eclat Comm-DSWP[4] + Lib: expected=1122 (31ed2f0f) counting=true ordered=[] await=[] locked=[]";
    "eclat DSWP[3] + Lib: expected=3532 (a5753234) counting=true ordered=[3,8,51,52,54,56,57] await=[3,8,51,52,54,56,57] locked=[]";
    "em3d Comm-DSWP[2] + Lib: expected=3090 (7519692f) counting=true ordered=[] await=[] locked=[]";
    "em3d DSWP[2] + Lib: expected=6180 (999d2369) counting=true ordered=[2,4,15,17] await=[2,4,15,17] locked=[]";
    "em3d Comm-DSWP[3] + Lib: expected=3090 (7519692f) counting=true ordered=[] await=[] locked=[]";
    "em3d Comm-PS-DSWP[S|DOALL:3] + Lib: expected=3090 (7519692f) counting=true ordered=[] await=[] locked=[]";
    "em3d DSWP[3] + Lib: expected=6180 (999d2369) counting=true ordered=[2,4,15,17] await=[2,4,15,17] locked=[]";
    "potrace Comm-DOALL + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "potrace Comm-DSWP[2] + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "potrace DSWP[2] + Lib: expected=960 (25974ac7) counting=true ordered=[6,11,16,20,21,22,23,24] await=[6,11,16,20,21,22,23,24] locked=[]";
    "potrace Comm-DSWP[4] + Lib: expected=0 (8812678d) counting=true ordered=[] await=[] locked=[]";
    "potrace DSWP[3] + Lib: expected=960 (25974ac7) counting=true ordered=[6,11,16,20,21,22,23,24] await=[6,11,16,20,21,22,23,24] locked=[]";
    "kmeans Comm-DOALL + Mutex: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[32]";
    "kmeans Comm-DOALL + Spin: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[32]";
    "kmeans Comm-DSWP[2] + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "kmeans DSWP[2] + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "kmeans Comm-DSWP[4] + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "kmeans Comm-PS-DSWP[DOALL:3|S] (seq-sync) + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "kmeans DSWP[4] + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "kmeans PS-DSWP[DOALL:3|S] + Lib: expected=320 (fb408fe4) counting=true ordered=[32] await=[32] locked=[]";
    "url Comm-DOALL + Mutex: expected=400 (79f484eb) counting=true ordered=[] await=[2] locked=[2]";
    "url Comm-DOALL + Spin: expected=400 (79f484eb) counting=true ordered=[] await=[2] locked=[2]";
    "url Comm-DSWP[2] + Lib: expected=400 (79f484eb) counting=true ordered=[] await=[] locked=[]";
    "url DSWP[2] + Lib: expected=1200 (034f798c) counting=true ordered=[2,20] await=[2,20] locked=[]";
    "url Comm-DSWP[3] + Lib: expected=400 (79f484eb) counting=true ordered=[] await=[] locked=[]";
    "url Comm-PS-DSWP[S|DOALL:3] (seq-sync) + Lib: expected=400 (79f484eb) counting=true ordered=[] await=[] locked=[]";
    "url DSWP[3] + Lib: expected=1200 (034f798c) counting=true ordered=[2,20] await=[2,20] locked=[]";
    "url PS-DSWP[S|DOALL:2|S] + Lib: expected=1200 (034f798c) counting=true ordered=[2,20] await=[2,20] locked=[]";
  ]

let test_ordering_pinned () =
  let got =
    List.concat_map
      (fun (w : W.t) ->
        let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
        List.map (fun plan -> w.W.wname ^ " " ^ ordering_summary c plan) (all_executable_plans c))
      Registry.all
  in
  check Alcotest.(list string) "ordering per executable plan" pinned_orderings got

(* ---- folded node map ---- *)

(* Workers see a node transition only where a lock or frontier duty is:
   on eclat's lock-heaviest plan, under 1% of the instructions its
   workers retire. *)
let test_eclat_transitions () =
  Costmodel.set_exec_ns_per_cycle 0.0;
  let w = Option.get (Registry.find "eclat") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let plan =
    List.find
      (fun (p : T.Plan.t) -> p.T.Plan.label = "Comm-DOALL + Mutex")
      (P.executable_plans c ~threads:2)
  in
  let transitions = Metrics.counter "exec.node_transitions" in
  let steps = Metrics.counter "exec.worker_steps" in
  let t0 = Metrics.value transitions and s0 = Metrics.value steps in
  let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:1 c plan in
  check Alcotest.bool "exact output" true (x.P.xfidelity <> P.Mismatch);
  let dt = Metrics.value transitions - t0 and ds = Metrics.value steps - s0 in
  if dt <= 0 || dt * 100 >= ds then
    Alcotest.failf "eclat: %d node transition(s) against %d worker step(s)" dt ds

(* ---- warm worker domains ---- *)

(* Each iteration prints one vector entry the set-up pushed; with fewer
   entries, the last iteration raises. The coordinator prints around
   the loop. *)
let vec_program =
  {|
void main() {
  print("begin");
  for (int i = 0; i < 8; i++) {
    string s = vec_get(i);
    print(s);
  }
  print("end");
}
|}

let vec_setup n m =
  for i = 0 to n - 1 do
    R.Machine.vec_push m ("s" ^ string_of_int i)
  done

let vec_compiled = lazy (P.compile ~name:"warm" ~setup:(vec_setup 8) vec_program)

(* One real-engine run of the program's first executable plan. *)
let vec_run ?(entries = 8) ~jobs () =
  let c = Lazy.force vec_compiled in
  let plan = List.hd (P.executable_plans c ~threads:2) in
  let pdg = if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain in
  let trace = c.P.trace in
  match
    Realexec.run ~attrib:false ~plan ~pdg ~trace
      ~emitted:(T.Emit.emit ~plan ~pdg ~trace)
      ~prepared:c.P.prepared ~setup:(vec_setup entries) ~jobs ()
  with
  | Ok r -> r.Realexec.r_outputs
  | Error why -> Alcotest.failf "real engine refused the loop: %s" why

let vec_expected = "begin" :: List.init 8 (fun i -> "s" ^ string_of_int i) @ [ "end" ]

(* Runs lease parked domains instead of spawning their own. *)
let test_warm_domains_reused () =
  Costmodel.set_exec_ns_per_cycle 0.0;
  let spawned = Metrics.counter "exec.domains_spawned" in
  let s0 = Metrics.value spawned in
  for k = 1 to 10 do
    check Alcotest.(list string) (Printf.sprintf "run %d output" k) vec_expected (vec_run ~jobs:2 ())
  done;
  let n = Metrics.value spawned - s0 in
  if n > 2 then Alcotest.failf "10 runs at jobs=2 spawned %d domains" n

(* A failed run surfaces its worker's error and leaves nothing behind:
   the next run, with its coordinator on a domain that was one of the
   failed run's workers, produces the exact output. *)
let test_warm_domains_after_error () =
  Costmodel.set_exec_ns_per_cycle 0.0;
  (match vec_run ~entries:7 ~jobs:2 () with
  | _ -> Alcotest.fail "a run whose iteration raises returned"
  | exception Commset_support.Diag.Error d ->
      check Alcotest.string "worker error surfaces" "runtime: vector index 7 out of bounds"
        d.Commset_support.Diag.message);
  check Alcotest.(list string) "next run" vec_expected (vec_run ~jobs:2 ());
  let out = ref [] in
  Commset_exec.Workers.await (Commset_exec.Workers.lease (fun () -> out := vec_run ~jobs:2 ()));
  check Alcotest.(list string) "next run, coordinated from a warm domain" vec_expected !out

(* Two runs of one compilation at once, from two domains, both pass
   Equiv. *)
let test_concurrent_runs () =
  Costmodel.set_exec_ns_per_cycle 0.0;
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let plan = List.hd (P.executable_plans c ~threads:2) in
  let run () = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  List.iter
    (fun x ->
      check Alcotest.bool "passes Equiv" true (x.P.xfidelity <> P.Mismatch);
      check Alcotest.int "all iterations" (R.Trace.n_iterations c.P.trace)
        x.P.xstats.Exec.x_iterations)
    [ Domain.join d1; Domain.join d2 ]

(* ---- differential suite: explicit real engine, no fallback ---- *)

let real_all_plans (w : W.t) () =
  Costmodel.set_exec_ns_per_cycle 0.0;
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  List.iter
    (fun jobs ->
      let plans = P.executable_plans c ~threads:jobs in
      if jobs > 1 then
        check Alcotest.bool
          (Printf.sprintf "executable plans exist at %d jobs" jobs)
          true (plans <> []);
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine:Exec.Real_engine ~jobs c plan in
          check Alcotest.string
            (Printf.sprintf "%s at %d job(s): ran on the real engine"
               plan.T.Plan.label jobs)
            "real" x.P.xstats.Exec.x_engine;
          if x.P.xfidelity = P.Mismatch then
            Alcotest.failf "%s: %s at %d job(s): output mismatch" w.W.wname
              plan.T.Plan.label jobs;
          check Alcotest.bool
            (Printf.sprintf "%s at %d job(s): iterations executed"
               plan.T.Plan.label jobs)
            true
            (x.P.xstats.Exec.x_iterations > 0))
        plans)
    [ 1; 2; 4 ]

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: real engine, no fallback, jobs 1/2/4" w.W.wname)
        `Quick (real_all_plans w))
    Registry.all

(* ---- buffered cost under calibration ---- *)

(* A buffered writer's price and its impl's charge come from one cost
   function, so an applied calibration scale reaches both. *)
let test_buffered_cost_scaled () =
  let stat_add = R.Builtins.find_exn "stat_add" in
  let buffered = Array.make (List.length R.Builtins.all) false in
  buffered.(stat_add.R.Builtins.id) <- true;
  let argv = [ R.Value.Vfloat 1.5 ] in
  let charged () =
    let cost =
      match (Realexec.policies ~buffered).(stat_add.R.Builtins.id) with
      | Realexec.Buffered cost -> cost argv
      | p -> Alcotest.failf "stat_add is %s, not buffered" (policy_name p)
    in
    (cost, snd (stat_add.R.Builtins.impl (R.Machine.create ()) argv))
  in
  let plain_buf, plain_impl = charged () in
  check (Alcotest.float 0.) "unscaled: buffered = impl" plain_impl plain_buf;
  Fun.protect ~finally:R.Builtins.clear_cost_scales (fun () ->
      R.Builtins.set_cost_scales [ ("stat_add", 2.0) ];
      let buf, impl = charged () in
      check (Alcotest.float 0.) "scaled impl doubles" (2.0 *. plain_impl) impl;
      check (Alcotest.float 0.) "scaled: buffered = impl" impl buf)

let suite =
  ( "realexec",
    [
      Alcotest.test_case "engine names and defaults" `Quick test_engine_names;
      qcheck prop_merge_order_insensitive;
      Alcotest.test_case "builtin policy table" `Quick test_policy_table;
      Alcotest.test_case "buffered cost follows calibration" `Quick test_buffered_cost_scaled;
      Alcotest.test_case "ordering analysis pinned per plan" `Quick test_ordering_pinned;
      Alcotest.test_case "eclat: transitions under 1% of worker steps" `Quick
        test_eclat_transitions;
      Alcotest.test_case "warm domains: back-to-back runs reuse them" `Quick
        test_warm_domains_reused;
      Alcotest.test_case "warm domains: clean after a failed run" `Quick
        test_warm_domains_after_error;
      Alcotest.test_case "warm domains: concurrent runs" `Quick test_concurrent_runs;
    ]
    @ differential_cases )
