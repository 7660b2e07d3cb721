(** Differential tests: the prepared-program engine ({!Precompile}) must
    be observationally identical to the reference interpreter
    ({!Interp}) — outputs, total cycles (bit-exact), diagnostics, fuel
    exhaustion points, final globals, and (on the instrumented path) the
    complete hook event stream — across every bundled workload, every
    annotation variant, and a set of handwritten corner cases. The
    coarse path ([run_main_coarse]) is held to the same outcome and to
    the reference stream's block- and function-level events. *)

module L = Commset_lang
module Ir = Commset_ir.Ir
module R = Commset_runtime
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
open Commset_support

let check = Alcotest.check

let compile src =
  let ast = L.Parser.parse_program ~file:"<diff>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  Commset_ir.Lower.lower_program ast

(* ---- event-stream observers ---------------------------------------- *)

let fbits (f : float) = Int64.to_int (Int64.bits_of_float f)

let rec enc_value = function
  | R.Value.Vint n -> "i" ^ string_of_int n
  | R.Value.Vfloat f -> "f" ^ string_of_int (fbits f)
  | R.Value.Vbool b -> "b" ^ string_of_bool b
  | R.Value.Vstring s -> "s" ^ String.escaped s
  | R.Value.Varray a ->
      "[" ^ String.concat ";" (List.map enc_value (Array.to_list a)) ^ "]"

let enc_actuals actuals =
  String.concat "|"
    (List.map
       (fun (set, vs) -> set ^ "=" ^ String.concat "," (List.map enc_value vs))
       actuals)

(** Record every hook event into [sink] as a canonical string. Exact but
    allocation-heavy: for the big workloads use {!hashing_hooks}. *)
let recording_hooks sink =
  let h = R.Interp.null_hooks () in
  let add s = sink := s :: !sink in
  h.R.Interp.on_instr <- (fun f i -> add (Printf.sprintf "I:%s:%d" f.Ir.fname i.Ir.iid));
  h.R.Interp.on_block <- (fun f l -> add (Printf.sprintf "B:%s:%d" f.Ir.fname l));
  h.R.Interp.on_base_cost <- (fun c -> add (Printf.sprintf "C:%d" (fbits c)));
  h.R.Interp.on_builtin <-
    (fun bi c -> add (Printf.sprintf "X:%s:%d" bi.R.Builtins.name (fbits c)));
  h.R.Interp.on_output <- (fun s -> add ("O:" ^ String.escaped s));
  h.R.Interp.on_enter_func <- (fun f -> add ("E:" ^ f.Ir.fname));
  h.R.Interp.on_exit_func <- (fun f -> add ("F:" ^ f.Ir.fname));
  h.R.Interp.on_region_enter <-
    (fun f r actuals regs ->
      add
        (Printf.sprintf "R:%s:%d:%s:#%d" f.Ir.fname r.Ir.rid (enc_actuals actuals)
           (Array.length regs)));
  h.R.Interp.on_call_actuals <-
    (fun i argv en ->
      add
        (Printf.sprintf "A:%d:%s:%s" i.Ir.iid
           (String.concat "," (List.map enc_value argv))
           (String.concat "|"
              (List.map (fun (blk, sets) -> blk ^ "{" ^ enc_actuals sets ^ "}") en))));
  h

(* The events the coarse path fires: blocks, function entry and exit,
   and output — the stream's ["B:"], ["E:"], ["F:"] and ["O:"] events. *)
let coarse_event s =
  List.exists (fun p -> String.starts_with ~prefix:p s) [ "B:"; "E:"; "F:"; "O:" ]

(** Fold every hook event into a running hash + count, without storing
    the stream. Identical streams give identical (hash, count); a
    divergence at any event perturbs all later mixes. [coarse], when
    given, is a second (hash, count) fed with the same mixes restricted
    to the events {!coarse_event} keeps. *)
let hashing_hooks ?coarse acc count =
  let h = R.Interp.null_hooks () in
  let cur_coarse = ref false in
  let mix x =
    acc := (!acc * 31) + x;
    match coarse with
    | Some (cacc, _) when !cur_coarse -> cacc := (!cacc * 31) + x
    | _ -> ()
  in
  let mixh v = mix (Hashtbl.hash v) in
  let ev tag =
    incr count;
    cur_coarse := List.mem tag [ 2; 5; 6; 7 ];
    (match coarse with Some (_, cn) when !cur_coarse -> incr cn | _ -> ());
    mix tag
  in
  h.R.Interp.on_instr <-
    (fun f i ->
      ev 1;
      mixh f.Ir.fname;
      mix i.Ir.iid);
  h.R.Interp.on_block <-
    (fun f l ->
      ev 2;
      mixh f.Ir.fname;
      mix l);
  h.R.Interp.on_base_cost <-
    (fun c ->
      ev 3;
      mix (fbits c));
  h.R.Interp.on_builtin <-
    (fun bi c ->
      ev 4;
      mixh bi.R.Builtins.name;
      mix (fbits c));
  h.R.Interp.on_output <-
    (fun s ->
      ev 5;
      mixh s);
  h.R.Interp.on_enter_func <-
    (fun f ->
      ev 6;
      mixh f.Ir.fname);
  h.R.Interp.on_exit_func <-
    (fun f ->
      ev 7;
      mixh f.Ir.fname);
  h.R.Interp.on_region_enter <-
    (fun f r actuals regs ->
      ev 8;
      mixh f.Ir.fname;
      mix r.Ir.rid;
      mixh (enc_actuals actuals);
      mix (Array.length regs));
  h.R.Interp.on_call_actuals <-
    (fun i argv en ->
      ev 9;
      mix i.Ir.iid;
      mixh (List.map enc_value argv);
      List.iter
        (fun (blk, sets) ->
          mixh blk;
          mixh (enc_actuals sets))
        en);
  h

(* ---- run outcomes --------------------------------------------------- *)

type outcome = {
  o_result : (float, string) result;  (** total cycles, or trap message *)
  o_outputs : string list;
  o_globals : (string * string) list;  (** name, canonical value *)
}

let canon_globals l =
  List.sort compare (List.map (fun (n, v) -> (n, enc_value v)) l)

let run_reference ?hooks ?fuel ~setup prog =
  let machine = R.Machine.create () in
  setup machine;
  let interp = R.Interp.create ?hooks ?fuel ~machine prog in
  let result =
    match R.Interp.run_main interp with
    | total -> Ok total
    | exception Diag.Error d -> Error (Diag.to_string d)
    | exception R.Interp.Out_of_fuel -> Error "<out of fuel>"
    | exception Not_found -> Error "<not found>"
  in
  {
    o_result = result;
    o_outputs = R.Machine.outputs machine;
    o_globals =
      canon_globals (Hashtbl.fold (fun n v l -> (n, v) :: l) interp.R.Interp.globals []);
  }

let run_prepared ?(coarse = false) ?hooks ?fuel ~setup prepared =
  let machine = R.Machine.create () in
  setup machine;
  let ex = R.Precompile.executor ?hooks ?fuel ~machine prepared in
  let run = if coarse then R.Precompile.run_main_coarse else R.Precompile.run_main in
  let result =
    match run ex with
    | total -> Ok total
    | exception Diag.Error d -> Error (Diag.to_string d)
    | exception R.Interp.Out_of_fuel -> Error "<out of fuel>"
    | exception Not_found -> Error "<not found>"
  in
  {
    o_result = result;
    o_outputs = R.Machine.outputs machine;
    o_globals = canon_globals (R.Precompile.globals ex);
  }

let result_t = Alcotest.(result (float 0.0) string)

let check_outcome what (expected : outcome) (got : outcome) =
  check result_t (what ^ ": total cycles") expected.o_result got.o_result;
  check Alcotest.(list string) (what ^ ": outputs") expected.o_outputs got.o_outputs;
  check
    Alcotest.(list (pair string string))
    (what ^ ": globals") expected.o_globals got.o_globals

(** Full differential on one program: fast, coarse and instrumented
    paths against the reference, plus exact hook-stream comparison (the
    coarse path against the reference stream's coarse events). Returns
    the fast path's outcome. *)
let differential ?fuel ?(setup = fun _ -> ()) src =
  let prog = compile src in
  let prepared = R.Precompile.prepare prog in
  let ref_sink = ref [] in
  let reference = run_reference ~hooks:(recording_hooks ref_sink) ?fuel ~setup prog in
  let fast = run_prepared ?fuel ~setup prepared in
  check_outcome "fast path" reference fast;
  let ins_sink = ref [] in
  let instrumented =
    run_prepared ~hooks:(recording_hooks ins_sink) ?fuel ~setup prepared
  in
  check_outcome "instrumented path" reference instrumented;
  check Alcotest.(list string) "hook event stream" (List.rev !ref_sink)
    (List.rev !ins_sink);
  let coarse_sink = ref [] in
  let coarse =
    run_prepared ~coarse:true ~hooks:(recording_hooks coarse_sink) ?fuel ~setup prepared
  in
  check_outcome "coarse path" reference coarse;
  check Alcotest.(list string) "coarse hook event stream"
    (List.filter coarse_event (List.rev !ref_sink))
    (List.rev !coarse_sink);
  fast

(* ---- handwritten corner cases --------------------------------------- *)

let test_diff_basic () =
  ignore @@ differential
    {|
int g = 3;
float acc = 0.25;
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
void main() {
  int[] a = iarray(6);
  for (int i = 0; i < 6; i++) {
    a[i] = fib(i) * g;
  }
  float x = acc;
  for (int i = 0; i < 6; i++) {
    x = x + int_to_float(a[i]) / 3.0;
    acc = x;
  }
  g = g + alen_i(a);
  print(float_to_string(x));
  print(int_to_string(g));
}
|}

let test_diff_strings_bools () =
  ignore @@ differential
    {|
void main() {
  string s = "";
  bool flip = false;
  for (int i = 0; i < 10; i++) {
    flip = !flip;
    if (flip && (i % 3 != 0)) {
      s = s + int_to_string(i);
    }
    if (s > "145" || s == "1") {
      s = s + ".";
    }
  }
  print(s);
  print(md5_hex(s));
}
|}

let test_diff_float_edge () =
  (* 0.0 / 0.0 is nan: Eq must be false on both engines (IEEE), and the
     accumulated totals must agree bit-for-bit *)
  ignore @@ differential
    {|
void main() {
  float z = 0.0;
  float n = z / z;
  if (n == n) {
    print("nan equal");
  } else {
    print("nan not equal");
  }
  float big = 1.0;
  for (int i = 0; i < 30; i++) {
    big = big * 3.7 + 0.001;
  }
  print(float_to_string(big));
}
|}

let trap_message src =
  match (differential src).o_result with
  | Error m -> m
  | Ok _ -> Alcotest.failf "expected %S to trap" src

let test_diff_traps () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let expect needle src =
    let m = trap_message src in
    check Alcotest.bool (Printf.sprintf "%S in %S" needle m) true (contains ~needle m)
  in
  expect "division by zero" "void main() { int x = 8; int y = x / (x - x); }";
  expect "modulo by zero" "void main() { int x = 8; int y = x % (x - x); }";
  expect "out of bounds" "void main() { int[] a = iarray(2); a[5] = 1; }";
  expect "out of bounds" "void main() { int[] a = iarray(2); int x = a[0 - 2]; }"

let test_diff_fuel () =
  (* both engines must exhaust fuel at the same point, for fuel values
     straddling block and instruction boundaries *)
  let src = "void main() { int x = 0; while (true) { x = x + 1; } }" in
  List.iter
    (fun fuel -> ignore (differential ~fuel src))
    [ 1; 2; 3; 7; 50; 51; 52; 53; 1000 ]

let test_diff_missing_arg () =
  (* lowering can't produce an arity mismatch from typechecked source, so
     drive exec directly: both engines report the same missing-argument
     diagnostic for main-with-params *)
  match (differential "void main(int n) { print(int_to_string(n)); }").o_result with
  | Error m -> check Alcotest.bool "names argument 0" true (m <> "")
  | Ok _ -> Alcotest.fail "main(int) with no args must trap"

(* ---- workload differentials ----------------------------------------- *)

let workload_differential (w : W.t) variant_name src () =
  let prog = compile src in
  let prepared = R.Precompile.prepare prog in
  let what fmt = Printf.sprintf fmt w.W.wname variant_name in
  (* fast path: outputs + bit-exact totals + final globals *)
  let reference = run_reference ~setup:w.W.setup prog in
  let fast = run_prepared ~setup:w.W.setup prepared in
  check_outcome (what "%s/%s fast") reference fast;
  (* instrumented path: full hook stream, compared as rolling hash +
     event count (the streams run to millions of events) *)
  let ref_acc = ref 0 and ref_n = ref 0 in
  let ref_cacc = ref 0 and ref_cn = ref 0 in
  let ins_acc = ref 0 and ins_n = ref 0 in
  let reference_h =
    run_reference
      ~hooks:(hashing_hooks ~coarse:(ref_cacc, ref_cn) ref_acc ref_n)
      ~setup:w.W.setup prog
  in
  let instrumented =
    run_prepared ~hooks:(hashing_hooks ins_acc ins_n) ~setup:w.W.setup prepared
  in
  check_outcome (what "%s/%s instrumented") reference_h instrumented;
  check Alcotest.int (what "%s/%s hook event count") !ref_n !ins_n;
  check Alcotest.int (what "%s/%s hook event hash") !ref_acc !ins_acc;
  (* coarse path: same outcome, and the reference stream restricted to
     block, function and output events *)
  let co_acc = ref 0 and co_n = ref 0 in
  let coarse =
    run_prepared ~coarse:true ~hooks:(hashing_hooks co_acc co_n) ~setup:w.W.setup prepared
  in
  check_outcome (what "%s/%s coarse") reference_h coarse;
  check Alcotest.int (what "%s/%s coarse hook event count") !ref_cn !co_n;
  check Alcotest.int (what "%s/%s coarse hook event hash") !ref_cacc !co_acc

let workload_cases =
  List.concat_map
    (fun (w : W.t) ->
      let case name src =
        Alcotest.test_case
          (Printf.sprintf "%s/%s differential" w.W.wname name)
          `Slow
          (workload_differential w name src)
      in
      case "base" w.W.source
      :: List.map (fun (vname, vsrc) -> case vname vsrc) w.W.variants)
    Registry.all

let suite =
  ( "precompile",
    [
      Alcotest.test_case "basic differential" `Quick test_diff_basic;
      Alcotest.test_case "strings and bools" `Quick test_diff_strings_bools;
      Alcotest.test_case "float edge cases" `Quick test_diff_float_edge;
      Alcotest.test_case "traps" `Quick test_diff_traps;
      Alcotest.test_case "fuel parity" `Quick test_diff_fuel;
      Alcotest.test_case "missing argument" `Quick test_diff_missing_arg;
    ]
    @ workload_cases )
