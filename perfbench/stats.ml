(** Order statistics for the benchmark. Quartiles follow Python's
    [statistics.quantiles(data, n=4)] (the "exclusive" method), so the
    benchmark's own spreads match the ones an outside checker computes
    from the same samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let check_nonempty what xs = if xs = [] then invalid_arg (what ^ ": no samples")

let median xs =
  check_nonempty "median" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** [(q1, q2, q3)]. One sample gives that sample three times. *)
let quartiles xs =
  check_nonempty "quartiles" xs;
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(** Samples strictly above the [p]-th percentile's rank: [n - ceil (p n / 100)]. *)
let beyond ~p n = n - int_of_float (Float.ceil (p *. float_of_int n /. 100.))

(** [p]-th percentile (linear interpolation between closest ranks).
    [Error] when fewer than 10 samples lie beyond it: such a tail is
    one or two samples and reads differently on every run. *)
let percentile ~p xs =
  let n = List.length xs in
  if p < 0. || p > 100. then invalid_arg "percentile: p outside [0, 100]";
  if n = 0 || beyond ~p n < 10 then
    Error
      (Printf.sprintf "p%g needs 10 samples beyond it; %d sample(s) give %d" p n
         (max 0 (beyond ~p n)))
  else
    let a = sorted xs in
    let h = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    Ok (a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo))))

let geomean xs =
  check_nonempty "geomean" xs;
  List.iter (fun x -> if not (x > 0.) then invalid_arg "geomean: non-positive sample") xs;
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))
