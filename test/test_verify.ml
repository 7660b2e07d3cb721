(** Tests for the commutativity annotation verifier ([lib/verify]): the
    verdict lattice, static refutation by symbolic differencing, dynamic
    refutation by order-swapped replay, the lint passes' stable codes,
    the new well-formedness rejections (CS004/CS011/CS012), and the
    guarantee that the bundled workloads are never Refuted. *)

module P = Commset_pipeline.Pipeline
module V = Commset_verify
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
open Commset_support

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- verdict lattice ---- *)

let cx source = { V.Verdict.cx_source = source; cx_detail = "d" }

let test_verdict_lattice () =
  let p = V.Verdict.Proved "p"
  and u = V.Verdict.Unknown "u"
  and r = V.Verdict.Refuted (cx V.Verdict.Static) in
  let j = V.Verdict.join in
  check Alcotest.bool "P v U = U" true (j p u = u);
  check Alcotest.bool "U v P = U" true (j u p = u);
  check Alcotest.bool "U v R = R" true (j u r = r);
  check Alcotest.bool "R v P = R" true (j r p = r);
  check Alcotest.bool "P v P = P" true (j p p = p);
  (* join is a least upper bound: rank never decreases *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool "join dominates" true
            (V.Verdict.rank (j a b) >= max (V.Verdict.rank a) (V.Verdict.rank b)))
        [ p; u; r ])
    [ p; u; r ]

(* ---- Diag.collect ---- *)

let test_diag_collect () =
  let ds =
    Diag.collect (fun () ->
        Diag.warn ~code:"CS099" "first";
        Diag.report (Diag.diagnostic ~code:"CS098" Diag.Error_sev Loc.dummy "second"))
  in
  check Alcotest.int "two collected" 2 (List.length ds);
  check
    Alcotest.(list (option string))
    "codes in order"
    [ Some "CS099"; Some "CS098" ]
    (List.map (fun d -> d.Diag.code) ds);
  (* a raised error is captured as the final diagnostic, not propagated *)
  let ds = Diag.collect (fun () -> Diag.error ~code:"CS097" "boom") in
  check Alcotest.int "raised error captured" 1 (List.length ds);
  (* outside [collect], warnings are dropped silently instead of raising *)
  Diag.warn "dropped"

(* ---- refutation of a deliberately wrong annotation ---- *)

(* Both sets claim distinct iterations commute, but each loop ends with a
   last-writer-wins store to a global. LSET stores an affine function of
   the induction variable (statically refutable); MSET stores a hashed
   value that is opaque to the symbolic domain (only dynamically
   refutable). *)
let refutable_source =
  {|
#pragma commset decl LSET self
#pragma commset predicate LSET (a1) (a2) (a1 != a2)
#pragma commset decl MSET self
#pragma commset predicate MSET (b1) (b2) (b1 != b2)

int last = 0;
int mark = 0;

void main() {
  for (int i = 0; i < 64; i++) {
    int w = str_hash(int_to_string(i * 13)) + str_hash(int_to_string(i * 7));
    #pragma commset member LSET(i)
    {
      last = i;
    }
  }
  for (int j = 0; j < 64; j++) {
    int h = str_hash(int_to_string(j * 17)) % 100;
    #pragma commset member MSET(j)
    {
      mark = h;
    }
  }
  print("last " + int_to_string(last));
  print("mark " + int_to_string(mark));
}
|}

let refuted_report =
  lazy
    (let c = P.compile ~name:"refutable" ~verify:true refutable_source in
     (c, Option.get c.P.verification))

let source_of_set report sname =
  List.filter_map
    (fun ((p : V.Verdict.pair), (cx : V.Verdict.counterexample)) ->
      if p.V.Verdict.pset = sname then Some cx.V.Verdict.cx_source else None)
    (V.Verdict.refuted_pairs report)

let test_refutes_last_writer () =
  let _, report = Lazy.force refuted_report in
  check Alcotest.int "both sets refuted" 2 (V.Verdict.n_refuted report);
  check Alcotest.int "nothing proved" 0 (V.Verdict.n_proved report);
  (* the affine store falls to the static engine, the opaque one to replay *)
  check Alcotest.bool "LSET refuted statically" true
    (source_of_set report "LSET" = [ V.Verdict.Static ]);
  check Alcotest.bool "MSET refuted dynamically" true
    (source_of_set report "MSET" = [ V.Verdict.Dynamic ])

let test_refutation_lints_cs001 () =
  let c, report = Lazy.force refuted_report in
  let diags =
    V.Lint.run_all { V.Lint.md = c.P.md; report = Some report; strict = false }
  in
  let cs001 = List.filter (fun d -> d.Diag.code = Some "CS001") diags in
  check Alcotest.int "one CS001 per refuted set" 2 (List.length cs001);
  List.iter
    (fun d ->
      check Alcotest.bool "refutations are errors" true (d.Diag.severity = Diag.Error_sev);
      check Alcotest.bool "diagnostic names its engine" true
        (contains d.Diag.message "static differencing"
        || contains d.Diag.message "dynamic replay"))
    cs001

(* ---- sound proofs for correct annotations ---- *)

(* PSET's predicate admits no pair of concurrent instances; DSET's member
   touches only function-local state. Both must be Proved. *)
let provable_source =
  {|
#pragma commset decl PSET self
#pragma commset predicate PSET (a1) (a2) (a1 != a1)
#pragma commset decl DSET self
#pragma commset predicate DSET (b1) (b2) (b1 != b2)

int last = 0;

void main() {
  int acc = 0;
  for (int i = 0; i < 32; i++) {
    int w = str_hash(int_to_string(i * 3)) + str_hash(int_to_string(i * 5));
    #pragma commset member PSET(i)
    {
      last = i;
    }
    #pragma commset member DSET(i)
    {
      acc = i * 2;
    }
  }
  print(int_to_string(last + acc));
}
|}

let test_proves_correct_annotations () =
  let c = P.compile ~name:"provable" ~verify:true provable_source in
  let report = Option.get c.P.verification in
  check Alcotest.int "all pairs proved"
    (List.length report.V.Verdict.rpairs)
    (V.Verdict.n_proved report);
  check Alcotest.int "nothing refuted" 0 (V.Verdict.n_refuted report)

(* ---- well-formedness rejections and their codes ---- *)

let code_of_failure src =
  match Diag.guard (fun () -> P.compile ~name:"bad" src) with
  | Ok _ -> Alcotest.fail "expected compilation to be rejected"
  | Error d -> d.Diag.code

let test_cs004_impure_predicate () =
  check
    Alcotest.(option string)
    "predicate calling rng_int is rejected" (Some "CS004")
    (code_of_failure
       {|
#pragma commset decl S self
#pragma commset predicate S (a1) (a2) (rng_int(8) != a2)
int x = 0;
void main() {
  for (int i = 0; i < 8; i++) {
    #pragma commset member S(i)
    {
      x = i;
    }
  }
}
|})

let test_cs011_intra_set_call () =
  check
    Alcotest.(option string)
    "member calling another member of the same set is rejected" (Some "CS011")
    (code_of_failure
       {|
#pragma commset decl S self
#pragma commset predicate S (a1) (a2) (a1 != a2)
int acc = 0;
void helper(int x) {
  #pragma commset member S(x)
  {
    acc = acc + x;
  }
}
void main() {
  for (int i = 0; i < 8; i++) {
    #pragma commset member S(i)
    {
      helper(i + 1);
    }
  }
}
|})

let test_cs012_cyclic_commset_graph () =
  check
    Alcotest.(option string)
    "mutually recursive commsets are rejected" (Some "CS012")
    (code_of_failure
       {|
#pragma commset decl A self
#pragma commset predicate A (a1) (a2) (a1 != a2)
#pragma commset decl B self
#pragma commset predicate B (b1) (b2) (b1 != b2)
int x = 0;
void f(int n) {
  #pragma commset member A(n)
  {
    if (n > 0) {
      g(n - 1);
    }
  }
}
void g(int n) {
  #pragma commset member B(n)
  {
    if (n > 0) {
      f(n - 1);
    }
  }
}
void main() {
  for (int i = 0; i < 4; i++) {
    f(i);
  }
}
|})

(* ---- the verifier's per-builtin table ---- *)

(* How each builtin's writes combine with a concurrent instance, and
   which of its resources are partitioned by one argument. A builtin not
   listed here is opaque (under its own name) and unkeyed. *)
let builtin_classes =
  [
    ("hist_add", "accumulate(histogram)");
    ("stat_add", "accumulate(statistics)");
    ("stat_note_max", "accumulate(statistics)");
    ("bm_set", "accumulate(bitmap-or)");
    ("list_insert", "append(list)");
    ("vec_push", "append(vector)");
    ("log_write", "append(log)");
    ("print", "append(stdout)");
    ("fwrite", "append(stream)");
    ("fopen", "alloc(fd)");
    ("fclose", "alloc(fd)");
    ("bm_new", "alloc(heap)");
    ("bm_free", "alloc(heap)");
    ("list_new", "alloc(heap)");
    ("list_free", "alloc(heap)");
    ("matrix_alloc", "alloc(heap)");
    ("matrix_free", "alloc(heap)");
    ("pkt_dequeue", "cursor(packet-queue)");
    ("db_read", "cursor(db)");
    ("fread", "cursor(stream)");
    ("rng_int", "rng-draw");
    ("rng_range", "rng-draw");
    ("rng_float", "rng-draw");
    ("rng_gauss", "rng-draw");
    ("rng_reseed", "overwrite");
    ("cache_put", "overwrite");
  ]

let builtin_keys =
  [
    ("bm_set", ([ "bm.data" ], 0));
    ("bm_get", ([ "bm.data" ], 0));
    ("fread", ([ "io.stream.in" ], 0));
    ("fsize", ([ "io.stream.in" ], 0));
    ("feof", ([ "io.stream.in" ], 0));
    ("fwrite", ([ "io.stream.out" ], 0));
    ("cache_put", ([ "registry" ], 0));
    ("cache_get", ([ "registry" ], 0));
    ("list_insert", ([ "lst" ], 0));
    ("list_contains", ([ "lst" ], 0));
    ("list_size", ([ "lst" ], 0));
    ("list_sum", ([ "lst" ], 0));
  ]

(* the verifier's view of one builtin: class string and key *)
let verifier_view (bi : Commset_runtime.Builtins.t) =
  (V.Summary.opclass_to_string bi.Commset_runtime.Builtins.vclass, bi.Commset_runtime.Builtins.key)

let test_builtin_verifier_table () =
  let module B = Commset_runtime.Builtins in
  List.iter
    (fun n -> check Alcotest.bool (n ^ " is a builtin") true (B.find n <> None))
    (List.map fst builtin_classes @ List.map fst builtin_keys);
  List.iter
    (fun (bi : B.t) ->
      let name = bi.B.name in
      let cls, key = verifier_view bi in
      let want =
        Option.value (List.assoc_opt name builtin_classes)
          ~default:(Printf.sprintf "opaque(%s)" name)
      in
      check Alcotest.string (name ^ " class") want cls;
      check
        Alcotest.(option (pair (list string) int))
        (name ^ " key") (List.assoc_opt name builtin_keys) key)
    B.all

(* ---- the bundled workloads must never be Refuted ---- *)

let test_workload_never_refuted name () =
  let w = Option.get (Registry.find name) in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup ~verify:true w.W.source in
  let report = Option.get c.P.verification in
  check Alcotest.int
    (name ^ ": no annotation refuted")
    0 (V.Verdict.n_refuted report);
  check Alcotest.bool (name ^ ": something verified") true
    (report.V.Verdict.rpairs <> [])

let suite =
  ( "verify",
    [
      Alcotest.test_case "verdict lattice" `Quick test_verdict_lattice;
      Alcotest.test_case "Diag.collect" `Quick test_diag_collect;
      Alcotest.test_case "refutes last-writer annotation" `Slow test_refutes_last_writer;
      Alcotest.test_case "refutation emits CS001" `Slow test_refutation_lints_cs001;
      Alcotest.test_case "proves correct annotations" `Slow test_proves_correct_annotations;
      Alcotest.test_case "CS004 impure predicate" `Quick test_cs004_impure_predicate;
      Alcotest.test_case "CS011 intra-set member call" `Quick test_cs011_intra_set_call;
      Alcotest.test_case "CS012 cyclic commset graph" `Quick test_cs012_cyclic_commset_graph;
      Alcotest.test_case "builtin verifier table" `Quick test_builtin_verifier_table;
      Alcotest.test_case "md5sum never refuted" `Slow (test_workload_never_refuted "md5sum");
      Alcotest.test_case "kmeans never refuted" `Slow (test_workload_never_refuted "kmeans");
    ] )
