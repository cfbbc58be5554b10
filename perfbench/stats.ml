let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mid_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mid_mean: no samples";
  let lo, hi = if n < 4 then (0, n) else (n / 4, n - (n / 4)) in
  let sum = ref 0. in
  for i = lo to hi - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* Python's exclusive method: position i * (len + 1) / 4, clamped to
   the sample range and interpolated in exact integer steps. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ladder = [ 99.99; 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  (* the epsilon keeps float error from pushing an exact rank up by one *)
  let rank p = int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-6)) in
  List.find_map
    (fun p ->
      let r = rank p in
      if r >= 1 && n - r >= 10 then Some (p, a.(r - 1)) else None)
    ladder

type fingerprint = { count : int; sum : int }

let empty = { count = 0; sum = 0 }

(* splitmix64's finalizer, on OCaml's 63-bit ints *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let hash tup = Array.fold_left (fun h v -> mix (h + v)) (Array.length tup) tup

let add fp tup = { count = fp.count + 1; sum = fp.sum + hash tup }

let hash_pair a b = mix (mix (2 + a) + b)

let union a b = { count = a.count + b.count; sum = a.sum + b.sum }

let to_string fp = Printf.sprintf "%d tuples, sum %x" fp.count fp.sum
