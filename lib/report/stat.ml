(** [commsetc stat] / [run --format=json] renderers; see the interface. *)

module P = Commset_pipeline.Pipeline
module X = Commset_exec.Exec
module Attrib = Commset_obs.Attrib
module Metrics = Commset_obs.Metrics

type calib_note = { cn_path : string; cn_ns_per_cycle : float; cn_loaded : bool }

let fidelity_name = function
  | P.Exact -> "exact"
  | P.Multiset_equal -> "multiset-equal"
  | P.Mismatch -> "MISMATCH"

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let tbl ~header rows = Ascii.table ~header rows ^ "\n"
let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)
let us ns = Printf.sprintf "%.1f" (ns /. 1e3)
let f2 v = Printf.sprintf "%.2f" v

let share_cell ~iter_wall c =
  (* dispatch waits sit between iterations and the merge runs on the
     coordinator: neither is a share of iteration wall time *)
  match c.Attrib.c_name with
  | "dispatch_wait" | "merge" -> "-"
  | _ ->
      if iter_wall > 0. then Printf.sprintf "%.1f%%" (100. *. c.Attrib.c_total_ns /. iter_wall)
      else "-"

let attrib_text buf (s : Attrib.summary) =
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf
       "  attribution: %d iteration(s) on %d worker(s), %.3f ms iteration wall, %.0f charged \
        cycles, conservation error %.2f%%\n"
       s.Attrib.a_iterations s.Attrib.a_jobs
       (s.Attrib.a_iter_wall_ns /. 1e6)
       s.Attrib.a_charged_cycles
       (100. *. s.Attrib.a_conservation_error));
  let cause_rows =
    List.map
      (fun c ->
        [
          c.Attrib.c_name;
          ms c.Attrib.c_total_ns;
          share_cell ~iter_wall:s.Attrib.a_iter_wall_ns c;
          string_of_int c.Attrib.c_count;
          us c.Attrib.c_p50_ns;
          us c.Attrib.c_p95_ns;
          us c.Attrib.c_p99_ns;
        ])
      s.Attrib.a_causes
  in
  add
    (tbl
       ~header:[ "cause"; "total ms"; "share"; "n"; "p50 us"; "p95 us"; "p99 us" ]
       cause_rows);
  let locks = List.filter (fun l -> l.Attrib.l_acquires > 0) s.Attrib.a_locks in
  (match locks with
  | [] -> add "  (no lock acquisitions)\n"
  | _ ->
      add
        (tbl
           ~header:[ "lock"; "acquires"; "wait ms"; "avg wait us" ]
           (List.map
              (fun l ->
                [
                  l.Attrib.l_name;
                  string_of_int l.Attrib.l_acquires;
                  ms l.Attrib.l_wait_ns;
                  us (l.Attrib.l_wait_ns /. float_of_int l.Attrib.l_acquires);
                ])
              locks)));
  (match
     List.sort (fun a b -> Float.compare b.Attrib.b_wall_ns a.Attrib.b_wall_ns) s.Attrib.a_builtins
   with
  | [] -> ()
  | sorted ->
      let top = List.filteri (fun i _ -> i < 8) sorted in
      add
        (tbl
           ~header:[ "builtin"; "calls"; "wall ms"; "mean us"; "charged cycles" ]
           (List.map
              (fun b ->
                [
                  b.Attrib.b_name;
                  string_of_int b.Attrib.b_calls;
                  ms b.Attrib.b_wall_ns;
                  us (b.Attrib.b_wall_ns /. float_of_int (max 1 b.Attrib.b_calls));
                  Printf.sprintf "%.0f" b.Attrib.b_cost_cycles;
                ])
              top));
      if List.length sorted > 8 then
        add (Printf.sprintf "  (%d more builtin(s) omitted)\n" (List.length sorted - 8)));
  let k = s.Attrib.a_coord in
  add
    (Printf.sprintf
       "  coordinator: %.1f%% busy (%.3f ms wall, %.3f ms blocked on full rings), merge %.3f \
        ms\n"
       (100. *. k.Attrib.k_utilization)
       (k.Attrib.k_wall_ns /. 1e6)
       (k.Attrib.k_dispatch_wait_ns /. 1e6)
       (k.Attrib.k_merge_ns /. 1e6))

let render_text ~workload ~engine ~jobs ~cores ?calib (runs : P.exec_run list) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "workload %s — engine %s, %d job(s), %d core(s)%s\n" workload engine jobs
       cores
       (if jobs + 1 > cores then " [oversubscribed: measured walls are not speedup-faithful]"
        else ""));
  add
    (tbl
       ~header:
         [ "plan"; "engine"; "predicted"; "measured"; "fidelity"; "iters"; "par ms"; "inflation" ]
       (List.map
          (fun (r : P.exec_run) ->
            [
              r.P.xplan.Commset_transforms.Plan.label;
              r.P.xstats.X.x_engine;
              f2 r.P.xpredicted;
              f2 r.P.xstats.X.x_measured_speedup;
              fidelity_name r.P.xfidelity;
              string_of_int r.P.xstats.X.x_iterations;
              Printf.sprintf "%.3f" (r.P.xstats.X.x_wall_par_s *. 1e3);
              (match r.P.xstats.X.x_compute_inflation with Some v -> f2 v | None -> "-");
            ])
          runs));
  List.iter
    (fun (r : P.exec_run) ->
      match r.P.xstats.X.x_attrib with
      | None -> ()
      | Some s ->
          add (Printf.sprintf "\nplan %s:\n" r.P.xplan.Commset_transforms.Plan.label);
          attrib_text buf s)
    runs;
  (match calib with
  | None -> ()
  | Some c ->
      add
        (Printf.sprintf "\ncalibration: %s %s (ns/cycle %.3f)\n"
           (if c.cn_loaded then "loaded from" else "profile written to")
           c.cn_path c.cn_ns_per_cycle));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let num v =
  let v = if Float.is_finite v then v else 0. in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let str s = "\"" ^ Metrics.json_escape s ^ "\""
let opt_str = function None -> "null" | Some s -> str s
let bool b = if b then "true" else "false"

let obj fields = "{ " ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ " }"
let arr items = "[" ^ String.concat ", " items ^ "]"

let attrib_json (s : Attrib.summary) =
  obj
    [
      ("jobs", string_of_int s.Attrib.a_jobs);
      ("iterations", string_of_int s.Attrib.a_iterations);
      ("iter_wall_ns", num s.Attrib.a_iter_wall_ns);
      ("charged_cycles", num s.Attrib.a_charged_cycles);
      ("conservation_error", num s.Attrib.a_conservation_error);
      ("charge_flushes", string_of_int s.Attrib.a_charge_flushes);
      ( "causes",
        arr
          (List.map
             (fun c ->
               obj
                 [
                   ("cause", str c.Attrib.c_name);
                   ("total_ns", num c.Attrib.c_total_ns);
                   ("count", string_of_int c.Attrib.c_count);
                   ("p50_ns", num c.Attrib.c_p50_ns);
                   ("p95_ns", num c.Attrib.c_p95_ns);
                   ("p99_ns", num c.Attrib.c_p99_ns);
                 ])
             s.Attrib.a_causes) );
      ( "locks",
        arr
          (List.map
             (fun l ->
               obj
                 [
                   ("name", str l.Attrib.l_name);
                   ("acquires", string_of_int l.Attrib.l_acquires);
                   ("wait_ns", num l.Attrib.l_wait_ns);
                 ])
             s.Attrib.a_locks) );
      ( "builtins",
        arr
          (List.map
             (fun b ->
               obj
                 [
                   ("name", str b.Attrib.b_name);
                   ("calls", string_of_int b.Attrib.b_calls);
                   ("wall_ns", num b.Attrib.b_wall_ns);
                   ("charged_cycles", num b.Attrib.b_cost_cycles);
                 ])
             s.Attrib.a_builtins) );
      ( "coordinator",
        obj
          [
            ("wall_ns", num s.Attrib.a_coord.Attrib.k_wall_ns);
            ("dispatch_wait_ns", num s.Attrib.a_coord.Attrib.k_dispatch_wait_ns);
            ("utilization", num s.Attrib.a_coord.Attrib.k_utilization);
            ("merge_ns", num s.Attrib.a_coord.Attrib.k_merge_ns);
          ] );
    ]

let plan_json (r : P.exec_run) =
  let x = r.P.xstats in
  obj
    [
      ("plan", str r.P.xplan.Commset_transforms.Plan.label);
      ("engine", str x.X.x_engine);
      ("engine_reason", opt_str x.X.x_engine_reason);
      ("predicted_speedup", num r.P.xpredicted);
      ("measured_speedup", num x.X.x_measured_speedup);
      ("fidelity", str (fidelity_name r.P.xfidelity));
      ("threads", string_of_int x.X.x_threads);
      ("wall_seq_s", num x.X.x_wall_seq_s);
      ("wall_par_s", num x.X.x_wall_par_s);
      ("iterations", string_of_int x.X.x_iterations);
      ("steps", string_of_int x.X.x_steps);
      ("lock_contended", string_of_int x.X.x_lock_contended);
      ("queue_full_waits", string_of_int x.X.x_queue_full_waits);
      ("queue_empty_waits", string_of_int x.X.x_queue_empty_waits);
      ("frontier_waits", string_of_int x.X.x_frontier_waits);
      ("buffered_updates", string_of_int x.X.x_buffered_updates);
      ("merge_s", num x.X.x_merge_s);
      ( "compute_inflation",
        match x.X.x_compute_inflation with Some v -> num v | None -> "null" );
      ("codegen_cache_hit", bool x.X.x_codegen_cache_hit);
      ("codegen_compile_s", num x.X.x_codegen_compile_s);
      ( "attribution",
        match x.X.x_attrib with None -> "null" | Some s -> attrib_json s );
    ]

let render_json ~workload ~engine ~jobs ~cores ?calib (runs : P.exec_run list) =
  let calib_json =
    match calib with
    | None -> "null"
    | Some c ->
        obj
          [
            ("path", str c.cn_path);
            ("ns_per_cycle", num c.cn_ns_per_cycle);
            ("loaded", bool c.cn_loaded);
          ]
  in
  obj
    [
      ("workload", str workload);
      ("engine_requested", str engine);
      ("jobs", string_of_int jobs);
      ("available_cores", string_of_int cores);
      ("oversubscribed", bool (jobs + 1 > cores));
      ("plans", arr (List.map plan_json runs));
      ("calibration", calib_json);
    ]
  ^ "\n"
