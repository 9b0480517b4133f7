(* taqp_ha: the replicated serving tier.

   The load-bearing properties, smallest first: the breaker's
   closed/open/half-open machine is a pure function of virtual time;
   health probes debit and credit it deterministically; the
   cross-backend [summarize] reproduces [Engine.finish] bit-for-bit;
   a 1-backend cluster IS a direct [Scheduler.run] (byte-identical
   records and summary); and killing a backend mid-flight loses
   nothing the journal knew about — terminals replay byte-identically,
   the unfinished remainder migrates (or is honestly written off), and
   no job ever gets two terminal verdicts. *)

module Breaker = Taqp_net.Breaker
module Health = Taqp_net.Health
module Balancer = Taqp_net.Balancer
module Server = Taqp_net.Server
module Client = Taqp_net.Client
module Load = Taqp_net.Load
module Wire = Taqp_net.Wire
module Job = Taqp_sched.Job
module Scheduler = Taqp_sched.Scheduler
module Engine = Taqp_sched.Engine
module Sched_journal = Taqp_sched.Sched_journal
module Journal = Taqp_recover.Journal
module Paper_setup = Taqp_workload.Paper_setup
module Arrivals = Taqp_workload.Arrivals
module Ra = Taqp_relational.Ra

let checkb = Fixtures.checkb
let checki = Fixtures.checki
let checkf = Fixtures.checkf
let checks = Alcotest.check Alcotest.string

let fresh_dir stem =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taqp_test_ha_%s_%d" stem (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let cleanup_dir d =
  (try
     Sys.readdir d
     |> Array.iter (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)

let test_breaker_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown:5.0 ~backoff:2.0 () in
  checks "starts closed" "closed" (Breaker.state_name (Breaker.state b ~now:0.0));
  Breaker.record_failure b ~now:0.1;
  Breaker.record_failure b ~now:0.2;
  checks "two failures stay closed" "closed"
    (Breaker.state_name (Breaker.state b ~now:0.2));
  (* a success inside the streak resets it *)
  Breaker.record_success b ~now:0.3;
  Breaker.record_failure b ~now:0.4;
  Breaker.record_failure b ~now:0.5;
  checks "streak was reset" "closed"
    (Breaker.state_name (Breaker.state b ~now:0.5));
  Breaker.record_failure b ~now:0.6;
  checks "third consecutive failure trips" "open"
    (Breaker.state_name (Breaker.state b ~now:0.6));
  (* opinions are ignored while open *)
  Breaker.record_success b ~now:1.0;
  checks "success while open ignored" "open"
    (Breaker.state_name (Breaker.state b ~now:1.0));
  checkf "retry_after quotes the remaining cooldown" 3.6
    (Breaker.retry_after b ~now:2.0);
  checks "cooldown elapsed reads half-open" "half_open"
    (Breaker.state_name (Breaker.state b ~now:5.7));
  (* failed trial: re-open with doubled cooldown *)
  Breaker.record_failure b ~now:5.8;
  checks "failed trial re-opens" "open"
    (Breaker.state_name (Breaker.state b ~now:5.9));
  checkb "backed-off cooldown is longer" true
    (Breaker.retry_after b ~now:5.8 > 5.0);
  checks "still open inside the backed-off window" "open"
    (Breaker.state_name (Breaker.state b ~now:10.0));
  checks "half-open after the backed-off window" "half_open"
    (Breaker.state_name (Breaker.state b ~now:15.81));
  (* passed trial: closed, streaks forgotten *)
  Breaker.record_success b ~now:15.9;
  checks "passed trial closes" "closed"
    (Breaker.state_name (Breaker.state b ~now:15.9));
  checkf "closed quotes nothing" 0.0 (Breaker.retry_after b ~now:15.9)

let test_breaker_force_open () =
  let b = Breaker.create ~cooldown:3.0 () in
  Breaker.force_open b ~now:10.0;
  checks "forced open" "open" (Breaker.state_name (Breaker.state b ~now:10.0));
  checkf "cooldown runs from the forcing instant" 2.0
    (Breaker.retry_after b ~now:11.0);
  checks "then half-open" "half_open"
    (Breaker.state_name (Breaker.state b ~now:13.1))

(* ------------------------------------------------------------------ *)
(* Health                                                              *)

let test_health_bookkeeping () =
  let h = Health.create ~interval:0.25 ~deadline:1.0 () in
  checkb "first probe due immediately" true (Health.due h ~wall:100.0);
  Health.sent h ~wall:100.0;
  checkb "not due while in flight" false (Health.due h ~wall:100.3);
  checkb "not overdue inside the deadline" false
    (Health.overdue h ~wall:100.9);
  checkb "overdue past the deadline" true (Health.overdue h ~wall:101.1);
  Health.failed h ~now:5.0;
  checki "failure counted" 1 (Health.failures h);
  checkb "due again after the verdict" true (Health.due h ~wall:101.2);
  Health.sent h ~wall:101.2;
  Health.observe h ~now:6.0
    ~snapshot:{ Health.sn_now = 6.0; sn_live = 4; sn_pending = 2; sn_backlog = 12.0 };
  checki "two probes sent" 2 (Health.probes h);
  checki "depth from the snapshot" 6 (Health.depth h);
  checkf "cost prices one expected slot" 3.0 (Health.cost h);
  checkb "interval respected after a reply" false (Health.due h ~wall:101.3);
  checkb "due after the interval" true (Health.due h ~wall:101.5)

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)

let wl =
  lazy (Paper_setup.selection ~spec:(Fixtures.spec ~n_tuples:300 ()) ~seed:5 ())

let job_lines ?(slack = fun _ -> 4.0) n =
  let wl = Lazy.force wl in
  let q = Ra.to_string wl.Paper_setup.query in
  List.init n (fun i ->
      let arr = 0.2 *. float_of_int i in
      Printf.sprintf "%.17g | %.17g | %s | seed=%d,label=ha%d" arr
        (arr +. slack i) q (i + 3) i)

let result_frame d = Wire.frame_message (Wire.Result d)

let summary_fingerprint (s : Engine.summary) =
  Fmt.str
    "%d/%d/%d/%d/%d/%d/%d|%.17g|%.17g %.17g %.17g %.17g|%.17g|%.17g %.17g|%d"
    s.Engine.submitted s.Engine.admitted s.Engine.degraded s.Engine.rejected
    s.Engine.expired s.Engine.completed s.Engine.missed s.Engine.miss_rate
    s.Engine.lateness_p50 s.Engine.lateness_p99 s.Engine.lateness_p999
    s.Engine.max_lateness s.Engine.mean_queue_wait s.Engine.makespan
    s.Engine.busy_time s.Engine.preemptions

(* The cross-backend accounting is the engine's own, rebuilt from
   records: same folds, same sort, bit-identical on one engine's
   output. *)
let test_summarize_matches_engine () =
  let wl = Lazy.force wl in
  let jobs =
    List.mapi
      (fun id line ->
        match Job.of_line ~catalog:wl.Paper_setup.catalog ~id line with
        | Ok (Some j) -> j
        | _ -> Alcotest.fail "fixture line unparseable")
      (job_lines ~slack:(fun i -> if i mod 2 = 0 then 4.0 else 0.4) 6)
  in
  let r = Scheduler.run jobs in
  let records = List.map Engine.to_done_record r.Scheduler.reports in
  checks "summarize == Engine.finish"
    (summary_fingerprint r.Scheduler.summary)
    (summary_fingerprint
       (Balancer.summarize ~makespan:r.Scheduler.summary.Engine.makespan
          records))

(* One backend, no failures: the balancer is a pass-through. Both runs
   journal (journal writes are clock-charged), and every record and
   the summary must match byte for byte. *)
let test_cluster_anchor () =
  let wl = Lazy.force wl in
  let lines = job_lines 6 in
  let jpath = Filename.temp_file "taqp_test_ha_anchor" ".journal" in
  let w = Journal.create jpath in
  let jobs =
    List.mapi
      (fun id line ->
        match Job.of_line ~catalog:wl.Paper_setup.catalog ~id line with
        | Ok (Some j) -> j
        | _ -> Alcotest.fail "fixture line unparseable")
      lines
  in
  let base = Scheduler.run ~journal:w jobs in
  Journal.close w;
  Sys.remove jpath;
  let dir = fresh_dir "anchor" in
  let cluster =
    Balancer.Cluster.create ~dir ~backends:1
      ~catalog:wl.Paper_setup.catalog ~config:Taqp_core.Config.default ()
  in
  List.iter
    (fun line ->
      match Balancer.Cluster.submit cluster line with
      | `Queued (_, backend) -> checki "routed to the only backend" 0 backend
      | `Rejected (m, _) -> Alcotest.failf "anchor submit rejected: %s" m)
    lines;
  let out = Balancer.Cluster.drain cluster in
  cleanup_dir dir;
  let base_records = List.map Engine.to_done_record base.Scheduler.reports in
  checki "same record count" (List.length base_records)
    (List.length out.Balancer.Cluster.o_records);
  List.iter2
    (fun b c ->
      checks
        (Printf.sprintf "record %d byte-identical" b.Sched_journal.d_id)
        (result_frame b) (result_frame c))
    base_records out.Balancer.Cluster.o_records;
  checks "summary byte-identical"
    (summary_fingerprint base.Scheduler.summary)
    (summary_fingerprint out.Balancer.Cluster.o_summary)

let test_cluster_spreads_load () =
  let wl = Lazy.force wl in
  let dir = fresh_dir "spread" in
  let cluster =
    Balancer.Cluster.create ~dir ~backends:3
      ~catalog:wl.Paper_setup.catalog ~config:Taqp_core.Config.default ()
  in
  List.iter
    (fun line ->
      match Balancer.Cluster.submit cluster line with
      | `Queued _ -> ()
      | `Rejected (m, _) -> Alcotest.failf "submit rejected: %s" m)
    (job_lines 6);
  let out = Balancer.Cluster.drain cluster in
  cleanup_dir dir;
  let backends_used =
    List.sort_uniq compare (List.map snd out.Balancer.Cluster.o_routed)
  in
  (* identical idle engines: depth-tiebreak round-robins the first
     wave across all three *)
  checki "every backend saw work" 3 (List.length backends_used);
  checki "every job accounted once" 6
    (List.length out.Balancer.Cluster.o_records);
  checki "nothing migrated" 0 out.Balancer.Cluster.o_migrated

let run_kill_cluster ~failover () =
  let wl = Lazy.force wl in
  let dir = fresh_dir (if failover then "kill_on" else "kill_off") in
  let cluster =
    Balancer.Cluster.create ~dir ~backends:2
      ~catalog:wl.Paper_setup.catalog ~config:Taqp_core.Config.default ()
  in
  (* generous slack: migration itself must not cause misses *)
  let lines = job_lines ~slack:(fun _ -> 200.0) 8 in
  let routed =
    List.map
      (fun line ->
        match Balancer.Cluster.submit cluster line with
        | `Queued (id, backend) -> (id, backend)
        | `Rejected (m, _) -> Alcotest.failf "submit rejected: %s" m)
      lines
  in
  let on_victim = List.filter_map (fun (id, b) -> if b = 0 then Some id else None) routed in
  checkb "the victim holds work" true (List.length on_victim >= 2);
  (* run partway: warm until backend 0 has finished some of its jobs
     and still holds open ones — the kill must exercise both the
     journal replay and the migration path *)
  let victim_done () =
    List.filter (fun id -> Balancer.Cluster.frame cluster ~id <> None) on_victim
  in
  let rec warm upto =
    if upto > 500.0 then Alcotest.fail "backend 0 never finished a job"
    else begin
      Balancer.Cluster.advance cluster ~upto;
      if victim_done () = [] then warm (upto +. 0.25)
    end
  in
  warm 0.25;
  checkb "the victim still holds open work" true
    (List.length (victim_done ()) < List.length on_victim);
  Balancer.Cluster.kill cluster ~backend:0 ~failover ();
  checkb "backend 0 reads dead" false (Balancer.Cluster.alive cluster 0);
  let out = Balancer.Cluster.drain cluster in
  cleanup_dir dir;
  (lines, out)

let test_cluster_kill_failover () =
  let lines, out = run_kill_cluster ~failover:true () in
  (* exactly one terminal per submitted job — the dedupe rule *)
  checki "every job has exactly one terminal" (List.length lines)
    (List.length out.Balancer.Cluster.o_records);
  let ids =
    List.map
      (fun (d : Sched_journal.done_record) -> d.Sched_journal.d_id)
      out.Balancer.Cluster.o_records
  in
  checkb "ids unique" true (List.sort_uniq compare ids = List.sort compare ids);
  (* every journal-replayed frame matched its live push byte-for-byte *)
  checkb "replays happened" true (out.Balancer.Cluster.o_replays <> []);
  List.iter
    (fun (id, identical) ->
      checkb (Printf.sprintf "replay %d byte-identical" id) true identical)
    out.Balancer.Cluster.o_replays;
  checkb "unfinished jobs migrated" true (out.Balancer.Cluster.o_migrated > 0);
  checki "nothing lost with a survivor" 0 out.Balancer.Cluster.o_lost;
  (* generous slack: the migrated jobs still made their deadlines *)
  checki "no misses" 0 out.Balancer.Cluster.o_summary.Engine.missed

let test_cluster_kill_no_failover () =
  let lines, out = run_kill_cluster ~failover:false () in
  checki "every job still accounted" (List.length lines)
    (List.length out.Balancer.Cluster.o_records);
  checki "nothing migrated" 0 out.Balancer.Cluster.o_migrated;
  checkb "unfinished jobs written off" true (out.Balancer.Cluster.o_lost > 0);
  let lost =
    List.filter
      (fun (d : Sched_journal.done_record) ->
        String.equal d.Sched_journal.d_outcome "lost")
      out.Balancer.Cluster.o_records
  in
  checki "lost records match the write-off count"
    out.Balancer.Cluster.o_lost (List.length lost);
  List.iter
    (fun (d : Sched_journal.done_record) ->
      checkb "lost is admitted" true d.Sched_journal.d_admitted;
      checkb "lost is missed" true d.Sched_journal.d_missed;
      checkf "lost burned no device time" 0.0 d.Sched_journal.d_service)
    lost;
  checki "misses are exactly the losses" out.Balancer.Cluster.o_lost
    out.Balancer.Cluster.o_summary.Engine.missed

(* ------------------------------------------------------------------ *)
(* Proxy over real backend processes                                   *)

let spawn_backend ~journal () =
  let wl = Lazy.force wl in
  let server =
    Server.create ~gate:`Eager ~quota_capacity:1000.0 ~journal_path:journal
      ~catalog:wl.Paper_setup.catalog ~config:Taqp_core.Config.default ~port:0
      ()
  in
  let domain =
    Domain.spawn (fun () ->
        match Server.run server with
        | stats -> Ok stats
        | exception e ->
            Server.shutdown server;
            Error e)
  in
  (server, domain)

let test_proxy_round_trip () =
  let j1 = Filename.temp_file "taqp_test_ha_p1" ".journal" in
  let j2 = Filename.temp_file "taqp_test_ha_p2" ".journal" in
  let s1, d1 = spawn_backend ~journal:j1 () in
  let s2, d2 = spawn_backend ~journal:j2 () in
  let proxy =
    Balancer.Proxy.create ~port:0
      ~backends:
        [
          { Balancer.Proxy.bs_port = Server.port s1; bs_journal = Some j1 };
          { Balancer.Proxy.bs_port = Server.port s2; bs_journal = Some j2 };
        ]
      ()
  in
  let pd =
    Domain.spawn (fun () ->
        try Ok (Balancer.Proxy.run proxy) with e -> Error e)
  in
  let c =
    Client.connect_retry ~read_timeout:30.0
      ~port:(Balancer.Proxy.port proxy) ()
  in
  let n = 6 in
  let queued =
    List.filter_map
      (fun line ->
        match Client.submit c line with
        | `Queued (id, _, _) -> Some id
        | `Rejected (m, _) -> Alcotest.failf "proxy rejected: %s" m)
      (job_lines ~slack:(fun _ -> 60.0) n)
  in
  checki "all queued" n (List.length queued);
  (* global ids are the proxy's own, dense from 0 *)
  checkb "proxy owns the id space" true
    (List.sort compare queued = List.init n Fun.id);
  let summary = Client.drain c in
  let finished =
    List.filter_map
      (function Client.Finished d -> Some d.Sched_journal.d_id | _ -> None)
      (Client.pushes c)
  in
  Client.close c;
  let stats =
    match Domain.join pd with Ok s -> s | Error e -> raise e
  in
  checki "summary covers every job" n summary.Engine.submitted;
  checki "every job pushed exactly one terminal" n
    (List.length (List.sort_uniq compare finished));
  checki "no duplicate pushes" n (List.length finished);
  checki "no deaths" 0 stats.Balancer.Proxy.p_deaths;
  checki "stats records cover every job" n
    (List.length stats.Balancer.Proxy.p_records);
  ignore (Domain.join d1);
  ignore (Domain.join d2);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ j1; j2 ]

let test_proxy_kill_backend () =
  let j1 = Filename.temp_file "taqp_test_ha_k1" ".journal" in
  let j2 = Filename.temp_file "taqp_test_ha_k2" ".journal" in
  let s1, d1 = spawn_backend ~journal:j1 () in
  let s2, d2 = spawn_backend ~journal:j2 () in
  let proxy =
    Balancer.Proxy.create ~failover:true ~port:0
      ~backends:
        [
          { Balancer.Proxy.bs_port = Server.port s1; bs_journal = Some j1 };
          { Balancer.Proxy.bs_port = Server.port s2; bs_journal = Some j2 };
        ]
      ()
  in
  let pd =
    Domain.spawn (fun () ->
        try Ok (Balancer.Proxy.run proxy) with e -> Error e)
  in
  let n = 10 in
  let wl = Lazy.force wl in
  let q = Ra.to_string wl.Paper_setup.query in
  let outcome =
    Load.run
      ~kill:(n / 2, fun () -> Server.shutdown s1)
      ~port:(Balancer.Proxy.port proxy)
      ~process:Arrivals.Poisson ~rate:1.0 ~n ~seed:11 ~clients:2
      ~make_line:(fun ~index ~offset ->
        Printf.sprintf "%.17g | %.17g | %s | seed=%d,label=kill%d" offset
          (offset +. 60.0) q (index + 3) index)
      ()
  in
  let stats =
    match Domain.join pd with Ok s -> s | Error e -> raise e
  in
  ignore (Domain.join d1);
  ignore (Domain.join d2);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ j1; j2 ];
  checki "exactly one death" 1 stats.Balancer.Proxy.p_deaths;
  let queued =
    List.filter_map
      (fun (s : Load.submission) ->
        match s.Load.disposition with
        | Load.Queued { job_id; _ } -> Some job_id
        | Load.Door_rejected _ -> None)
      outcome.Load.submissions
  in
  checkb "the tier kept admitting through the kill" true
    (List.length queued > n / 2);
  let terminal_ids =
    List.map
      (fun (d : Sched_journal.done_record) -> d.Sched_journal.d_id)
      outcome.Load.finished
    @ List.map (fun (id, _, _) -> id) outcome.Load.refused
  in
  checkb "no duplicate terminals" true
    (List.sort compare terminal_ids = List.sort_uniq compare terminal_ids);
  List.iter
    (fun id ->
      checkb
        (Printf.sprintf "queued job %d reached a terminal verdict" id)
        true
        (List.mem id terminal_ids))
    queued;
  checki "the tier's books cover every queued job" (List.length queued)
    (List.length stats.Balancer.Proxy.p_records)

(* Hostile input at both doors: the server and a 1-backend proxy run
   the same select loop, so each must answer garbage and close, close a
   wrong magic without a byte, refuse a server-to-client frame, and
   keep serving. *)
let exchange ~port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a door that never hangs up fails the read instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  ignore (Unix.write_substring fd bytes 0 (String.length bytes));
  let buf = Bytes.create 4096 in
  let rec read_to_eof saw =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> saw
    | n -> read_to_eof (saw ^ Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> saw
  in
  let answer = read_to_eof "" in
  Unix.close fd;
  let rd = Wire.reader () in
  Wire.feed rd (Bytes.of_string answer) (String.length answer);
  let rec frames acc =
    match Wire.next_message rd with
    | Ok (Some m) -> frames (m :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "undecodable answer: %s" e
  in
  (answer, List.map Wire.tag_name (frames []))

let check_hostile_door door ~port =
  let label what = door ^ ": " ^ what in
  let answer, tags = exchange ~port (Wire.magic ^ String.make 64 '\xFF') in
  checkb (label "garbage answered before the hang-up") true
    (String.length answer > 0);
  checks (label "garbage gets HELLO then ERROR") "hello error"
    (String.concat " " tags);
  let answer, _ = exchange ~port "NOTMAGIC" in
  checki (label "bad magic closed without a byte") 0 (String.length answer);
  let queued =
    Wire.frame_message
      (Wire.Queued { job_id = 0; arrival = 0.0; deadline = 1.0 })
  in
  let answer, tags = exchange ~port (Wire.magic ^ queued) in
  checks (label "server-to-client frame refused") "hello error"
    (String.concat " " tags);
  let expected =
    Wire.frame_message (Wire.Error { message = "unexpected message" })
  in
  checkb (label "refusal names the unexpected message") true
    (String.ends_with ~suffix:expected answer);
  let c = Client.connect ~read_timeout:30.0 ~port () in
  ignore (Client.drain c);
  Client.close c

let test_hostile_input () =
  let j0 = Filename.temp_file "taqp_test_ha_h0" ".journal" in
  let j1 = Filename.temp_file "taqp_test_ha_h1" ".journal" in
  let server, sd = spawn_backend ~journal:j0 () in
  check_hostile_door "server" ~port:(Server.port server);
  (match Domain.join sd with Ok _ -> () | Error e -> raise e);
  let backend, bd = spawn_backend ~journal:j1 () in
  let proxy =
    Balancer.Proxy.create ~port:0
      ~backends:
        [
          { Balancer.Proxy.bs_port = Server.port backend; bs_journal = Some j1 };
        ]
      ()
  in
  let pd =
    Domain.spawn (fun () ->
        try Ok (Balancer.Proxy.run proxy) with e -> Error e)
  in
  check_hostile_door "proxy" ~port:(Balancer.Proxy.port proxy);
  let stats = match Domain.join pd with Ok s -> s | Error e -> raise e in
  checki "proxy: no backend died" 0 stats.Balancer.Proxy.p_deaths;
  (match Domain.join bd with Ok _ -> () | Error e -> raise e);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ j0; j1 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "ha"
    [
      ( "breaker",
        [
          Alcotest.test_case "closed/open/half-open machine" `Quick
            test_breaker_machine;
          Alcotest.test_case "force_open" `Quick test_breaker_force_open;
        ] );
      ( "health",
        [ Alcotest.test_case "probe bookkeeping" `Quick test_health_bookkeeping ]
      );
      ( "cluster",
        [
          Alcotest.test_case "summarize == Engine.finish" `Quick
            test_summarize_matches_engine;
          Alcotest.test_case "1-backend cluster == Scheduler.run" `Quick
            test_cluster_anchor;
          Alcotest.test_case "routing spreads idle backends" `Quick
            test_cluster_spreads_load;
          Alcotest.test_case "kill: replay + migrate, one terminal each"
            `Quick test_cluster_kill_failover;
          Alcotest.test_case "kill without failover writes off honestly"
            `Quick test_cluster_kill_no_failover;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "round trip over two backends" `Quick
            test_proxy_round_trip;
          Alcotest.test_case "kill one backend under load" `Quick
            test_proxy_kill_backend;
          Alcotest.test_case "hostile input at the server and the proxy"
            `Quick test_hostile_input;
        ] );
    ]
