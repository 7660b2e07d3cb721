(* Statistics helpers of the benchmark. Expected quartiles are the
   values Python's statistics.quantiles(data, n=4) returns. *)

open Perfbench_stats

let close = Alcotest.float 1e-9
let triple = Alcotest.(triple close close close)
let ints = List.map float_of_int

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median (ints [ 5; 1; 4; 2; 3 ]));
  Alcotest.check close "even" 2.5 (Stats.median (ints [ 4; 1; 3; 2 ]));
  Alcotest.check close "single" 7. (Stats.median [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "median: no samples") (fun () ->
      ignore (Stats.median []))

let test_quartiles () =
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Stats.quartiles (ints [ 1; 2; 3; 4 ]));
  Alcotest.check triple "unsorted 1..5" (1.5, 3., 4.5)
    (Stats.quartiles (ints [ 5; 1; 4; 2; 3 ]));
  Alcotest.check triple "two samples extrapolate" (1.375, 4.75, 8.125)
    (Stats.quartiles [ 2.5; 7.0 ]);
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (ints (List.init 10 (fun i -> i + 1))));
  Alcotest.check triple "single" (4., 4., 4.) (Stats.quartiles [ 4. ])

let test_percentile () =
  let xs n = ints (List.init n (fun i -> i + 1)) in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  (* p95 of 200 samples leaves exactly 10 beyond it *)
  Alcotest.check close "p95 of 1..200" 190.05 (ok (Stats.percentile ~p:95. (xs 200)));
  Alcotest.(check bool) "p95 of 199 refused" true
    (Result.is_error (Stats.percentile ~p:95. (xs 199)));
  Alcotest.(check bool) "p99 of 999 refused" true
    (Result.is_error (Stats.percentile ~p:99. (xs 999)));
  Alcotest.(check bool) "p99 of 1000 accepted" true
    (Result.is_ok (Stats.percentile ~p:99. (xs 1000)));
  Alcotest.check close "p50 of 1..20" 10.5 (ok (Stats.percentile ~p:50. (xs 20)));
  Alcotest.(check bool) "p50 of 19 refused" true
    (Result.is_error (Stats.percentile ~p:50. (xs 19)));
  Alcotest.(check bool) "empty refused" true (Result.is_error (Stats.percentile ~p:50. []))

let test_geomean () =
  Alcotest.check close "2, 8" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check close "constant" 3. (Stats.geomean [ 3.; 3.; 3. ]);
  Alcotest.check_raises "zero" (Invalid_argument "geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
    ]
