(* Latency summaries and failure accounting for one run. *)

(* Nearest-rank percentile of an ascending array, [p] in per-mille
   (500 = median, 990 = p99).  Integer arithmetic keeps the rank exact
   at the boundaries the tail rule depends on. *)
let rank n p = max 1 ((p * n + 999) / 1000)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank n p - 1)

let sort a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a = percentile (sort a) 500

(* The tail the run can support: the highest of p99 and p90 that has at
   least ten samples beyond its rank, or [None] below 100 samples. *)
let tail_ladder = [ 990; 900 ]
let min_beyond = 10

let tail_percentile n =
  List.find_opt (fun p -> n - rank n p >= min_beyond) tail_ladder

type summary = {
  samples : int;
  p50 : float;
  tail : (int * float) option; (* (per-mille, value) *)
}

let summarize a =
  let s = sort a in
  let n = Array.length s in
  {
    samples = n;
    p50 = percentile s 500;
    tail = Option.map (fun p -> (p, percentile s p)) (tail_percentile n);
  }

(* Failure accounting.  Every op the load generator issues is
   attempted; one that errors, is refused, or fails its correctness
   check is failed, and contributes no latency sample. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : float list; (* seconds, successful ops only *)
  mutable finished : float list; (* completion times of those ops *)
  mutable errors : string list; (* first few failure messages *)
}

let tally () = { attempted = 0; failed = 0; latencies = []; finished = []; errors = [] }

(* [Ok (t0, t1)]: an op issued at [t0] completed, correctly, at [t1]. *)
let record t outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Ok (t0, t1) ->
      t.latencies <- (t1 -. t0) :: t.latencies;
      t.finished <- t1 :: t.finished
  | Error e ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- e :: t.errors

let succeeded t = t.attempted - t.failed

let merge ts =
  let m = tally () in
  List.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.failed <- m.failed + t.failed;
      m.latencies <- List.rev_append t.latencies m.latencies;
      m.finished <- List.rev_append t.finished m.finished;
      m.errors <- m.errors @ t.errors)
    ts;
  m

(* A run's samples cut into up to [windows] consecutive windows of
   equal op count, by completion time, so a burst of host noise only
   disturbs the windows it falls in; the metrics are medians over
   windows.  A window holds at least [min_window] ops, so that the tail
   rule gives each one a p90.  [finished] and [latencies] are
   parallel, as a tally keeps them. *)
let windows = 10
let min_window = 100

type windowed = { rate : float; wp50 : float; wtail : float; tail_pm : int; samples : int; nwindows : int }

let windowed ~t0 ~finished ~latencies =
  let pairs = Array.of_list (List.combine finished latencies) in
  Array.sort compare pairs;
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Stats.windowed: no samples";
  let k = max 1 (min windows (n / min_window)) in
  let bound i = i * n / k in
  let ws =
    Array.init k (fun i ->
        let lo = bound i and hi = bound (i + 1) in
        let start = if i = 0 then t0 else fst pairs.(lo - 1) in
        let s = summarize (Array.map snd (Array.sub pairs lo (hi - lo))) in
        (float (hi - lo) /. (fst pairs.(hi - 1) -. start), s))
  in
  let tail_pm = match (snd ws.(0)).tail with Some (p, _) -> p | None -> 500 in
  let med f = median (Array.map f ws) in
  {
    rate = med fst;
    wp50 = med (fun (_, s) -> s.p50);
    wtail = med (fun (_, s) -> match s.tail with Some (_, v) -> v | None -> s.p50);
    tail_pm;
    samples = n;
    nwindows = k;
  }
