(** Semantics tests for the builtin table: signatures vs implementations,
    effect-spec sanity, and the behaviour of the string/array/collection
    builtins as observed through miniC programs. *)

module L = Commset_lang
module R = Commset_runtime
module Effects = Commset_analysis.Effects
module Value = Commset_runtime.Value

let check = Alcotest.check

let run_src src =
  let ast = L.Parser.parse_program ~file:"<test>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = R.Machine.create () in
  let interp = R.Interp.create ~machine prog in
  let _ = R.Interp.run_main interp in
  R.Machine.outputs machine

let expect src outputs = check Alcotest.(list string) src outputs (run_src src)

(* ---- registry sanity ---- *)

let test_registry () =
  check Alcotest.bool "several dozen builtins" true (List.length R.Builtins.all > 40);
  (* names unique *)
  let names = List.map (fun b -> b.R.Builtins.name) R.Builtins.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* every extern signature corresponds to a builtin and vice versa *)
  check Alcotest.int "extern sigs match" (List.length R.Builtins.all)
    (List.length R.Builtins.extern_sigs);
  (* lookup_spec agrees with the table *)
  List.iter
    (fun b ->
      match R.Builtins.lookup_spec b.R.Builtins.name with
      | Some spec -> check Alcotest.bool "spec identical" true (spec = b.R.Builtins.spec)
      | None -> Alcotest.failf "lookup_spec missing %s" b.R.Builtins.name)
    R.Builtins.all

let test_effect_spec_sanity () =
  List.iter
    (fun b ->
      let spec = b.R.Builtins.spec in
      (* array-effect positions must be inside the signature *)
      List.iter
        (fun p ->
          if p < 0 || p >= List.length b.R.Builtins.params then
            Alcotest.failf "%s: array-effect position %d out of range" b.R.Builtins.name p)
        (spec.Effects.bs_reads_arrays @ spec.Effects.bs_writes_arrays);
      (* a thread-safe builtin must own at least one resource or be the
         console (otherwise the flag is meaningless) *)
      ignore spec)
    R.Builtins.all

(* ---- string builtins ---- *)

let test_string_builtins () =
  expect
    {|
void main() {
  string s = "hello world";
  print(int_to_string(strlen(s)));
  print(substr(s, 6, 5));
  print(substr(s, 8, 100));
  print(int_to_string(str_get(s, 0)));
  print(int_to_string(str_find(s, "world")));
  print(int_to_string(str_find(s, "zz")));
}
|}
    [ "11"; "world"; "rld"; "104"; "6"; "-1" ]

let test_conversions () =
  expect
    {|
void main() {
  print(float_to_string(int_to_float(3)));
  print(int_to_string(float_to_int(2.9)));
  print(float_to_string(fsqrt(16.0)));
  print(float_to_string(fabs(0.0 - 2.5)));
}
|}
    [ "3.0000"; "2"; "4.0000"; "2.5000" ]

(* ---- md5 / trace / svg kernels ---- *)

let test_kernels () =
  expect
    {|
void main() {
  print(md5_hex("abc"));
  string path = trace_bitmap("ABCDEFGH");
  print(int_to_string(strlen(svg_encode("zz"))));
}
|}
    [ "900150983cd24fb0d6963f7d28e17f72"; "15" ]

(* ---- arrays and fills ---- *)

let test_array_builtins () =
  expect
    {|
void main() {
  float[] f = farray(4);
  afill_f(f, 50, 100);
  print(float_to_string(f[1] + f[3]));
  int[] a = iarray(3);
  afill_i(a, 2, 10);
  print(int_to_string(a[0] + a[1] + a[2]));
  print(int_to_string(alen_f(f)) + int_to_string(alen_i(a)));
}
|}
    [ "1.0000"; "6"; "43" ]

(* ---- collections through miniC ---- *)

let test_collections_via_program () =
  expect
    {|
void main() {
  int bm = bm_new(64);
  bm_set(bm, 5);
  if (bm_get(bm, 5)) {
    print("bit5");
  }
  if (!bm_get(bm, 6)) {
    print("not6");
  }
  bm_free(bm);
  int l = list_new();
  list_insert(l, 4);
  list_insert(l, 9);
  if (list_contains(l, 9)) {
    print("has9");
  }
  print(int_to_string(list_sum(l)));
  list_free(l);
  cache_put("k", "v1");
  print(cache_get("k"));
  print(cache_get("missing") + "!");
}
|}
    [ "bit5"; "not6"; "has9"; "13"; "v1"; "!" ]

let test_rng_and_hist () =
  let out =
    run_src
      {|
void main() {
  rng_reseed(7);
  int a = rng_int(100);
  rng_reseed(7);
  int b = rng_int(100);
  if (a == b) {
    print("deterministic");
  }
  int c = rng_range(10, 20);
  if (c >= 10 && c < 20) {
    print("in-range");
  }
  hist_add(0.5);
  hist_add(1.5);
  print(hist_summary());
}
|}
  in
  check Alcotest.(list string) "rng behaviour"
    [ "deterministic"; "in-range"; "hist n=2 mean=1.0000" ]
    out

(* ---- argument decoding diagnostics ---- *)

(* A wrong-typed builtin argument is a runtime diagnostic naming its
   position and the expected type, byte for byte; a missing one is the
   list exception it always was. Float and array parameters only ever
   sit at positions 0 and 2 in the registry, so those kinds are pinned
   there. *)
let test_argument_diagnostics () =
  let call name args = ignore ((R.Builtins.find_exn name).R.Builtins.impl (R.Machine.create ()) args) in
  let expect what want name args =
    match call name args with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Commset_support.Diag.Error d ->
        check Alcotest.string what want d.Commset_support.Diag.message
  in
  let i n = Value.Vint n and f x = Value.Vfloat x and s x = Value.Vstring x in
  let arr = Value.Varray [| f 0.; f 1. |] in
  expect "int at 0" "runtime: argument 0 is not an int" "imin" [ s "x"; i 1 ];
  expect "int at 1" "runtime: argument 1 is not an int" "imin" [ i 1; f 2. ];
  expect "string at 0" "runtime: argument 0 is not a string" "str_find" [ i 1; s "a" ];
  expect "string at 1" "runtime: argument 1 is not a string" "str_find" [ s "a"; arr ];
  expect "float at 0" "runtime: argument 0 is not a float" "fsqrt" [ i 4 ];
  expect "float at 2" "runtime: argument 2 is not a float" "aset_f" [ arr; i 0; s "x" ];
  expect "array at 0" "runtime: argument 0 is not an array" "alen_f" [ f 1. ];
  expect "array at 0 (afill)" "runtime: argument 0 is not an array" "afill_f"
    [ s "x"; i 1; i 2 ];
  (* the well-typed calls go through *)
  call "imin" [ i 1; i 2 ];
  call "aset_f" [ arr; i 0; f 3. ];
  check Alcotest.bool "aset_f stored" true (arr = Value.Varray [| f 3.; f 1. |]);
  (match call "imin" [ i 1 ] with
  | () -> Alcotest.fail "imin with one argument: accepted"
  | exception Failure m -> check Alcotest.string "missing argument" "nth" m)

(* ---- bitmap bounds ---- *)

(* Negative bitmap keys and sizes are runtime diagnostics, not host
   exceptions, on every path that executes a bitmap call: the reference
   interpreter, the prepared fast path, and the payload call a real
   engine worker makes on a bitmap its iteration allocated. *)
let test_bitmap_bounds () =
  let expect_diag what want f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Commset_support.Diag.Error d ->
        check Alcotest.string what want d.Commset_support.Diag.message
  in
  let prepared src =
    let ast = L.Parser.parse_program ~file:"<test>" src in
    let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
    let prepared = R.Precompile.prepare (Commset_ir.Lower.lower_program ast) in
    ignore
      (R.Precompile.run_main (R.Precompile.executor ~machine:(R.Machine.create ()) prepared))
  in
  let bad_key = "void main() { int h = bm_new(64); bm_set(h, -3); }" in
  let bad_get = "void main() { int h = bm_new(64); if (bm_get(h, -3)) { print(\"set\"); } }" in
  let bad_size = "void main() { int h = bm_new(-20); bm_free(h); }" in
  let key_msg = "runtime: bitmap key -3 out of range" in
  let size_msg = "runtime: bitmap size -20 out of range" in
  List.iter
    (fun (path, run) ->
      expect_diag (path ^ ": bm_set key") key_msg (fun () -> run bad_key);
      expect_diag (path ^ ": bm_get key") key_msg (fun () -> run bad_get);
      expect_diag (path ^ ": bm_new size") size_msg (fun () -> run bad_size))
    [ ("interpreter", fun src -> ignore (run_src src)); ("fast path", prepared) ];
  let bi name = R.Builtins.find_exn name in
  let payload = Bytes.make 8 '\000' in
  let call name key = R.Builtins.bitmap_on_payload (bi name) payload [ Value.Vint 1; Value.Vint key ] in
  expect_diag "private payload: bm_set key" key_msg (fun () -> call "bm_set" (-3));
  expect_diag "private payload: bm_get key" key_msg (fun () -> call "bm_get" (-3));
  (* in range, and reading past the end, behave as before *)
  ignore (call "bm_set" 63);
  check Alcotest.bool "bit 63 set" true (fst (call "bm_get" 63) = Value.Vbool true);
  check Alcotest.bool "bit 64 reads unset" true (fst (call "bm_get" 64) = Value.Vbool false);
  expect_diag "private payload: bm_set past the end" "runtime: bitmap key 64 out of range"
    (fun () -> call "bm_set" 64)

let suite =
  ( "builtins",
    [
      Alcotest.test_case "registry sanity" `Quick test_registry;
      Alcotest.test_case "effect spec sanity" `Quick test_effect_spec_sanity;
      Alcotest.test_case "string builtins" `Quick test_string_builtins;
      Alcotest.test_case "conversions" `Quick test_conversions;
      Alcotest.test_case "md5/trace/svg kernels" `Quick test_kernels;
      Alcotest.test_case "array builtins" `Quick test_array_builtins;
      Alcotest.test_case "collections via miniC" `Quick test_collections_via_program;
      Alcotest.test_case "rng and histogram" `Quick test_rng_and_hist;
      Alcotest.test_case "bitmap bounds on every path" `Quick test_bitmap_bounds;
      Alcotest.test_case "argument type diagnostics" `Quick test_argument_diagnostics;
    ] )
