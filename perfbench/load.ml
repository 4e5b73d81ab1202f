(* The load generator: one process, one domain per connection, each a
   closed loop over its connection's op stream. *)

module Client = Tep_client.Client
module Message = Tep_wire.Message
module Verifier = Tep_core.Verifier
module Drbg = Tep_crypto.Drbg

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A traced run records one span per call into a layer, from this
   file, around the call: the op as a whole (parent 0) and each RPC or
   client-side check it makes (parent = the op's span).  Spans stay in
   memory until the run ends. *)
type span = { id : int; parent : int; name : string; conn : int; t0 : float; t1 : float }

type tracer = { on : bool; tconn : int; mutable next : int; mutable spans : span list }

let tracer ~on conn = { on; tconn = conn; next = 0; spans = [] }

let fresh tr =
  tr.next <- tr.next + 1;
  tr.next

let add tr ~id ~parent name t0 t1 =
  if tr.on then tr.spans <- { id; parent; name; conn = tr.tconn; t0; t1 } :: tr.spans

let span tr ~parent name f =
  if not tr.on then f ()
  else begin
    let id = fresh tr in
    let t0 = now () in
    let r = f () in
    add tr ~id ~parent name t0 (now ());
    r
  end

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* provdbd prints its `listening` line from the main thread while the
   accept loop binds the socket on another, so the first connect can
   still be refused; that window is retried at 1 ms granularity. *)
let connect ~sock ~drbg_seed participant =
  let drbg = Drbg.create ~seed:drbg_seed in
  let rec dial tries =
    match Client.connect_unix ~drbg ~retries:0 sock with
    | Ok c -> c
    | Error _ when tries < 2000 ->
        Unix.sleepf 0.001;
        dial (tries + 1)
    | Error e -> failwith ("connect: " ^ e)
  in
  let c = dial 0 in
  match Client.authenticate c participant with
  | Ok () -> c
  | Error e ->
      Client.close c;
      failwith ("authenticate: " ^ e)

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Preload through the wire: many inserts in flight so group commit
   coalesces them into large batches. *)
let preload c ops =
  let q = Queue.create () in
  let finish () =
    match Client.collect_submitted c (Queue.pop q) with
    | Ok (Some _, _, _) -> ()
    | Ok _ -> failwith "preload: insert returned no row"
    | Error e -> failwith ("preload: " ^ e)
  in
  List.iter
    (fun op ->
      if Queue.length q >= 64 then finish ();
      Queue.push (ok_or "preload" (Client.submit_async c op)) q)
    ops;
  while not (Queue.is_empty q) do
    finish ()
  done

 (* Server counters: Ping, Stats and the (single) shard's Shard_stats. *)
type counters = {
  pong : Client.health;
  stats : Client.server_stats;
  shard : Message.shard_stat;
}

let counters c =
  let shard =
    match ok_or "shard stats" (Client.shard_stats c) with
    | [ s ] -> s
    | l -> failwith (Printf.sprintf "expected one shard, got %d" (List.length l))
  in
  { pong = ok_or "ping" (Client.ping c); stats = ok_or "stats" (Client.stats c); shard }

(* Median round trip of [n] Pings issued one at a time on an idle
   daemon: the fixed reactor, dispatch, IPC and MAC cost of one RPC,
   without queueing behind other requests or any engine work. *)
let ping_rtt c n =
  Stats.median
    (Array.init n (fun _ ->
         let t0 = now () in
         ignore (ok_or "ping" (Client.ping c));
         now () -. t0))

(* ------------------------------------------------------------------ *)
(* Per-connection loops                                                *)
(* ------------------------------------------------------------------ *)

(* Last response of each kind, kept for the wire-layer measurements. *)
type examples = {
  mutable ex_submitted : Message.response option;
  mutable ex_proof : Message.response option;
  mutable ex_verified : Message.response option;
}

type conn_result = {
  tally : Stats.tally;
  writes : int; (* acknowledged writes *)
  inserts : int; (* acknowledged inserts, for the live-row check *)
  reads : int; (* verified reads and clean audits *)
  repins : int; (* reads whose pinned root went stale and were retried *)
  spans : span list;
  ex : examples;
}

type ctx = {
  algo : Tep_crypto.Digest_algo.algo;
  directory : Tep_core.Participant.Directory.t;
}

let stale_root = "proof: shard roots do not recombine into the trusted root"
let max_repins = 64

(* One verified read: pin the root, prove one cell, recheck the proof
   against the pinned root.  A write that lands between the pin and
   the proof makes the proof's root differ from the pinned one; the
   read then re-pins and retries. *)
let verified_read ctx c tr ~parent ex ~table ~row ~col =
  let pin () = span tr ~parent "rpc.root_hash" (fun () -> Client.root_hash c) in
  let rec go root repins =
    match span tr ~parent "rpc.prove" (fun () -> Client.prove c ~table ~row ~col ()) with
    | Error e -> Error e
    | Ok p -> (
        match
          span tr ~parent "client.check_proofs" (fun () ->
              Client.check_proofs ~algo:ctx.algo ~directory:ctx.directory ~trusted_root:root p)
        with
        | Ok r when Verifier.ok r ->
            ex.ex_proof <-
              Some
                (Message.Proof_resp
                   {
                     shard = p.Client.pf_shard;
                     shard_roots = p.Client.pf_shard_roots;
                     items = List.map (fun it -> (it.Client.pf_encoded, it.Client.pf_records)) p.Client.pf_items;
                   });
            Ok repins
        | Ok _ -> Error "proof check reported provenance violations"
        | Error e when e = stale_root && repins < max_repins -> (
            match pin () with Ok r -> go r (repins + 1) | Error e -> Error e)
        | Error e -> Error e)
  in
  match pin () with Error e -> Error e | Ok root -> go root 0

let full_verify c tr ~parent ex =
  match span tr ~parent "rpc.verify" (fun () -> Client.verify c ()) with
  | Error e -> Error e
  | Ok (report, Some store) when Message.report_ok report && Message.report_ok store ->
      ex.ex_verified <- Some (Message.Verified { report; store_audit = Some store });
      Ok ()
  | Ok (_, None) -> Error "verify returned no store audit"
  | Ok _ -> Error "verify reported violations"

(* Mixed couples its two connections: the writer issues one update per
   verified read the reader completes, and stops when the reader is
   done.  A writer that commits back to back holds the shard's
   writer-preferring lock almost all the time, and a pin-then-prove read
   then rarely finds the root unchanged: reads starve.  One update per
   read is the fastest writer pace at which every read finished within
   [max_repins] and the run stayed steady, measured over seeds (see
   README.md).  The reader releases one credit per completed read. *)
type pace = { reads : Semaphore.Counting.t; reader_done : bool Atomic.t }

let pace () = { reads = Semaphore.Counting.make 0; reader_done = Atomic.make false }

(* Block until the reader completes its next read; false once it is done. *)
let await_read p =
  (not (Atomic.get p.reader_done))
  && begin
       Semaphore.Counting.acquire p.reads;
       not (Atomic.get p.reader_done)
     end

let reader_finished p =
  Atomic.set p.reader_done true;
  Semaphore.Counting.release p.reads

(* Run [ops] on [c], keeping up to [depth] writes in flight; reads and
   audits are issued one at a time.  With [~writer], each op waits for
   a read to complete; with [~reader], each completed op releases one. *)
let run_conn ctx c ~trace ~conn ~depth ?writer ?reader (ops : Gen.op Seq.t) =
  let tr = tracer ~on:trace conn in
  let tally = Stats.tally () in
  let ex = { ex_submitted = None; ex_proof = None; ex_verified = None } in
  let writes = ref 0 and inserts = ref 0 and reads = ref 0 and repins = ref 0 in
  let q = Queue.create () in
  let finish_write () =
    let cid, is_insert, id, t0 = Queue.pop q in
    let r = Client.collect_submitted c cid in
    let t1 = now () in
    add tr ~id ~parent:0 "op.write" t0 t1;
    add tr ~id:(fresh tr) ~parent:id "rpc.submit" t0 t1;
    Stats.record tally
      (match r with
      | Ok (row, oid, records) when (row <> None) = is_insert ->
          incr writes;
          if is_insert then incr inserts;
          ex.ex_submitted <- Some (Message.Submitted { row; oid; records });
          Ok (t0, t1)
      | Ok _ -> Error "unexpected submit result"
      | Error e -> Error e)
  in
  let issue op =
    match op with
    | Gen.Write w -> (
        if Queue.length q >= depth then finish_write ();
        let id = if trace then fresh tr else 0 in
        let t0 = now () in
        match Client.submit_async c w with
        | Ok cid ->
            let is_insert = match w with Message.Op_insert _ -> true | _ -> false in
            Queue.push (cid, is_insert, id, t0) q
        | Error e -> Stats.record tally (Error e))
    | Gen.Read { table; row; col } ->
        let id = if trace then fresh tr else 0 in
        let t0 = now () in
        let r = verified_read ctx c tr ~parent:id ex ~table ~row ~col in
        let t1 = now () in
        add tr ~id ~parent:0 "op.read" t0 t1;
        Stats.record tally
          (match r with
          | Ok n ->
              incr reads;
              repins := !repins + n;
              Ok (t0, t1)
          | Error e -> Error e)
    | Gen.Full_verify ->
        let id = if trace then fresh tr else 0 in
        let t0 = now () in
        let r = full_verify c tr ~parent:id ex in
        let t1 = now () in
        add tr ~id ~parent:0 "op.audit" t0 t1;
        Stats.record tally
          (match r with
          | Ok () ->
              incr reads;
              Ok (t0, t1)
          | Error e -> Error e)
  in
  let rec loop s =
    match writer with
    | Some p when not (await_read p) -> ()
    | _ -> (
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons (op, rest) ->
            issue op;
            Option.iter (fun p -> Semaphore.Counting.release p.reads) reader;
            loop rest)
  in
  loop ops;
  while not (Queue.is_empty q) do
    finish_write ()
  done;
  { tally; writes = !writes; inserts = !inserts; reads = !reads; repins = !repins; spans = tr.spans; ex }

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)
(* ------------------------------------------------------------------ *)

type phase = { t_start : float; wall_s : float; conns : conn_result list }

(* Connect and authenticate every connection first, release all
   domains at once, and time from the release until the last one is
   done. *)
let timed_phase ctx w ~sock ~participants ~seed ~seconds ~trace ~tag =
  let n = Gen.connections w in
  let per_conn = Gen.ops_per_conn w ~seconds in
  let clients =
    List.init n (fun i ->
        let p = List.nth participants (i mod List.length participants) in
        connect ~sock ~drbg_seed:(Printf.sprintf "perfbench/client/%s/%d/%d" tag seed i) p)
  in
  let m = Mutex.create () and cv = Condition.create () and go = ref false in
  let p = pace () in
  (* forced here, as forcing a lazy from two domains at once raises *)
  ignore (Lazy.force Gen.hot_cells);
  let body i c () =
    Mutex.lock m;
    while not !go do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    let stream = Gen.stream w ~seed ~conn:i in
    match w with
    | Gen.Mixed when i = 0 -> run_conn ctx c ~trace ~conn:i ~depth:1 ~writer:p stream
    | Gen.Mixed ->
        Fun.protect
          ~finally:(fun () -> reader_finished p)
          (fun () -> run_conn ctx c ~trace ~conn:i ~depth:1 ~reader:p (Seq.take per_conn stream))
    | _ -> run_conn ctx c ~trace ~conn:i ~depth:(Gen.depth w) (Seq.take per_conn stream)
  in
  (* One domain per connection: a connection's client-side work (MAC,
     decoding, proof checks) then never waits for the other's. *)
  let domains = List.mapi (fun i c -> Domain.spawn (body i c)) clients in
  Mutex.lock m;
  let t0 = now () in
  go := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  let conns = List.map Domain.join domains in
  let wall_s = now () -. t0 in
  List.iter Client.close clients;
  { t_start = t0; wall_s; conns }
