(* Self-tests for the benchmark's statistics.  The quartile expectations
   are what Python's statistics.quantiles(xs, n=4) returns for the same
   samples. *)

let close a b = Float.abs (a -. b) < 1e-9

let check name cond =
  if not cond then begin
    Printf.eprintf "test_stats: %s failed\n" name;
    exit 1
  end

let () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "mid_mean drops the outer quarters"
    (close (Stats.mid_mean [ 100.; 1.; 2.; 3.; 4.; 5.; 6.; -50. ]) 3.5);
  check "mid_mean few" (close (Stats.mid_mean [ 1.; 2.; 6. ]) 3.);
  let q (a, b, c) (x, y, z) = close a x && close b y && close c z in
  check "quartiles 1..10"
    (q (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))) (2.75, 5.5, 8.25));
  check "quartiles three" (q (Stats.quartiles [ 3.; 1.; 2. ]) (1., 2., 3.));
  check "quartiles two extrapolate" (q (Stats.quartiles [ 5.; 1. ]) (0., 3., 6.));
  check "quartiles seven"
    (q (Stats.quartiles [ 0.9; 1.1; 1.0; 1.3; 0.8; 1.05; 1.2 ]) (0.9, 1.05, 1.2));
  check "quartiles one" (q (Stats.quartiles [ 7. ]) (7., 7., 7.))

(* tail: the highest percentile with at least 10 samples beyond it *)
let () =
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  check "tail 19 samples" (Stats.tail (ramp 19) = None);
  check "tail 20 samples" (Stats.tail (ramp 20) = Some (50., 10.));
  check "tail 40 samples" (Stats.tail (ramp 40) = Some (75., 30.));
  check "tail 100 samples" (Stats.tail (ramp 100) = Some (90., 90.));
  check "tail 199 samples" (Stats.tail (ramp 199) = Some (90., 180.));
  check "tail 200 samples" (Stats.tail (ramp 200) = Some (95., 190.));
  check "tail 1000 samples" (Stats.tail (ramp 1000) = Some (99., 990.));
  check "tail 10000 samples" (Stats.tail (ramp 10000) = Some (99.9, 9990.));
  check "tail unsorted input" (Stats.tail (List.rev (ramp 100)) = Some (90., 90.))

(* fingerprint: order-independent, but sensitive to content *)
let () =
  let fingerprint tups = List.fold_left Stats.add Stats.empty tups in
  let tups = List.init 500 (fun i -> [| i mod 37; i * 7; i |]) in
  let fp = fingerprint tups in
  check "fingerprint reversed" (fp = fingerprint (List.rev tups));
  let shuffled = List.sort (fun a b -> compare (a.(2) * 7919 mod 503) (b.(2) * 7919 mod 503)) tups in
  check "fingerprint shuffled" (fp = fingerprint shuffled);
  check "fingerprint count" (fp.Stats.count = 500);
  check "fingerprint hash_pair"
    (Stats.add Stats.empty [| 3; 5 |] = { Stats.count = 1; sum = Stats.hash_pair 3 5 });
  let lo, hi = List.partition (fun t -> t.(2) < 200) tups in
  check "fingerprint union of parts" (fp = Stats.union (fingerprint hi) (fingerprint lo));
  check "fingerprint drops a tuple" (fp <> fingerprint (List.tl tups));
  check "fingerprint swapped columns"
    (fp <> fingerprint (List.map (fun t -> [| t.(1); t.(0); t.(2) |]) tups));
  check "fingerprint duplicate vs distinct"
    (fingerprint [ [| 1; 2 |]; [| 1; 2 |] ] <> fingerprint [ [| 1; 2 |]; [| 2; 1 |] ])

let () = print_endline "test_stats: ok"
