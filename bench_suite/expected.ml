(* Simulated results at seed 42, committed.  Every rep at seed 42 must
   reproduce these exactly, and every simulated result a rep reports must
   have a value here; any other seed is checked only for rep-to-rep
   identity.  A failed check prints the value a rep produced. *)

let full =
  [
    ( "paper",
      [
        ("md5_evaluate", "d990b53f6d87624d8fdffdef6eb438be");
        ("md5_losssweep", "542980a78be5fe5a590b7daf97f3b5f4");
        ("losssweep_wire_bytes", "7208476");
        ("migrations", "77");
        ("completed", "77");
        ("faults", "11647");
        ("sim_s", "9660.5546509806645");
        ("sim_downtime_ms_p50", "7140.1867999999968");
      ] );
    ( "churn",
      [
        ("events", "1024884");
        ("jobs_completed", "20000");
        ("migrations", "64");
        ("wire_bytes", "326284");
        ("sim_s", "132");
        ("sim_downtime_ms_p50", "864.98759999999857");
        ("sim_downtime_ms_p99", "866.42960000000312");
        ("downtime_samples", "64");
        ("max_host_jobs", "45");
      ] );
    ( "swap-storm",
      [
        ("events", "717367");
        ("jobs_completed", "8000");
        ("migrations", "4805");
        ("wire_bytes", "22868876");
        ("sim_s", "104");
        ("sim_downtime_ms_p50", "804.46142068372865");
        ("sim_downtime_ms_p99", "889.070330594131");
        ("downtime_samples", "4805");
        ("max_host_jobs", "46");
      ] );
    ( "lossy-wire",
      [
        ("events", "692485");
        ("wire_bytes", "53018636");
        ("sim_clock_s", "2228.20218984442");
        ("sim_msg_s", "3316.4583803997916");
        ("warm_dedup_hits", "81919");
        ("migrations", "8");
        ("completed", "8");
        ("faults", "100847");
        ("sim_s", "7647.2121900857219");
        ("sim_downtime_ms_p50", "34210.854937250333");
      ] );
  ]

(* smoke mode shrinks every workload but paper, whose full output is the oracle *)
let smoke =
  ("paper", List.assoc "paper" full)
  :: [
    ( "churn",
      [
        ("events", "53052");
        ("jobs_completed", "1000");
        ("migrations", "31");
        ("wire_bytes", "136032");
        ("sim_s", "64");
        ("sim_downtime_ms_p50", "864.98760000000038");
        ("sim_downtime_ms_p99", "866.42960000000312");
        ("downtime_samples", "31");
        ("max_host_jobs", "29");
      ] );
    ( "swap-storm",
      [
        ("events", "89639");
        ("jobs_completed", "1000");
        ("migrations", "585");
        ("wire_bytes", "2648480");
        ("sim_s", "100");
        ("sim_downtime_ms_p50", "785.56000000001222");
        ("sim_downtime_ms_p99", "834.81035199998");
        ("downtime_samples", "585");
        ("max_host_jobs", "45");
      ] );
    ( "lossy-wire",
      [
        ("events", "33595");
        ("wire_bytes", "3342764");
        ("sim_clock_s", "95.758418636795582");
        ("sim_msg_s", "209.32303000000169");
        ("warm_dedup_hits", "5119");
        ("migrations", "8");
        ("completed", "8");
        ("faults", "1297");
        ("sim_s", "312.17658722467269");
        ("sim_downtime_ms_p50", "3064.1097483841058");
      ] );
  ]

let at_seed_42 ~smoke:s workload =
  Option.value ~default:[] (List.assoc_opt workload (if s then smoke else full))
