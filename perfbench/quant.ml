(* Exact quantiles of sorted samples (no histogram buckets). *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear between the two order statistics around rank q·(n-1). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let median l = quantile (sorted l) 0.5

(* The highest of these percentiles that still has at least ten samples
   beyond it. *)
let tail a =
  let n = float_of_int (Array.length a) in
  List.find_opt (fun q -> n *. (1.0 -. q) >= 10.0) [ 0.999; 0.99; 0.95; 0.9; 0.5 ]
  |> Option.map (fun q -> (q, quantile a q))
