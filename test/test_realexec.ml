(** Tests for the real-execution engine specifically: the differential
    suite pins [~engine:Real_engine] and asserts that every workload's
    every executable plan actually ran on the real engine and matched
    the sequential reference at jobs 1, 2 and 4; a qcheck property
    establishes that the commutative-update merge is insensitive to how
    iterations were distributed over workers; the per-run builtin policy
    table is pinned; and a buffered update is priced exactly like its
    impl under a calibration scale. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module Costmodel = Commset_runtime.Costmodel
module Exec = Commset_exec.Exec
module Realexec = Commset_exec.Realexec
module R = Commset_runtime
module Pdg = Commset_pdg.Pdg

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
    ]
    @ differential_cases )
