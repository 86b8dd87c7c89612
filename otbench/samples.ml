(* A growable int sample vector with nearest-rank quantiles. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 256 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let clear v = v.n <- 0

let append ~into v =
  for i = 0 to v.n - 1 do
    push into v.a.(i)
  done

let sum v =
  let s = ref 0 in
  for i = 0 to v.n - 1 do
    s := !s + v.a.(i)
  done;
  !s

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it. 0 for an empty vector. *)
let quantile v q =
  if v.n = 0 then 0
  else begin
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    let r = int_of_float (Float.ceil (q *. float_of_int v.n)) - 1 in
    s.(max 0 (min (v.n - 1) r))
  end

let median_float l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.
