(* Wall-clock sampling on the monotonic clock (nanoseconds) and the
   order statistics the report is made of. *)

let now_ns () = Monotonic_clock.now ()

let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

let since_s t0 = float_of_int (since_ns t0) /. 1e9

(* [time f] runs [f] and returns its value with the elapsed seconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, since_s t0)

(* A growable bag of float samples. *)
type samples = { mutable xs : float list; mutable n : int }

let samples () = { xs = []; n = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.n <- s.n + 1

let sorted s =
  let a = Array.of_list s.xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = truncate h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median s = quantile (sorted s) 0.5

(* The highest percentile that still has at least [beyond] samples
   above it, as (value, percentile).  With too few samples for such a
   percentile at or above the median, the median stands in. *)
let tail ?(beyond = 10) s =
  let a = sorted s in
  let n = Array.length a in
  let i = n - 1 - beyond in
  if 2 * (i + 1) < n then (quantile a 0.5, 50.)
  else (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)
