//! Library behind the `nimblock-cli` binary: argument parsing and command
//! execution, separated so tests can drive it without spawning processes.
//!
//! Commands:
//!
//! * `generate` — write a stimulus (event sequence) as JSON,
//! * `run` — run a scheduler on a generated or loaded stimulus, printing a
//!   summary and optionally a JSON report or a Gantt chart,
//! * `compare` — run several schedulers on the same stimulus and tabulate
//!   the reductions versus the no-sharing baseline,
//! * `analyze` — correctness and observability tooling, and the only
//!   front end of `nimblock-analyze`: lint the source tree (`lint`, and
//!   `deep` for the call-graph passes), print the rule catalogs (`rules`),
//!   verify a recorded schedule trace against the paper's invariants
//!   (`trace`, the same engine `run --check-invariants` applies inline),
//!   `explain` a trace — decompose every application's response time into
//!   six exactly-summing attribution components with critical-path span
//!   trees — render a continuous-monitoring document (`monitor`), or
//!   forecast what-if fleet shapes from a recorded serving trace (`plan`),
//! * `faas` / `cluster` — the scale-out deployment shapes.
//!
//! `run` and `cluster` optionally attach a continuous monitor
//! (`--timeseries-out`, `--slo`, `--postmortem-out`): tumbling-window
//! time-series in virtual time, a flight recorder, and SLO burn-rate
//! alerts, all byte-identical for any `--cluster-threads` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{
    parse, AnalyzeTarget, CliError, ClusterArgs, Command, CompareArgs,
    ExplainFormat, FaasArgs, FrontDoorArgs, GenerateArgs, MonitorArgs, RunArgs, SchedulerKind,
    TraceFormat,
};
pub use commands::{execute, load_sequence, make_sequence};

/// The usage text printed for `--help` or argument errors.
pub const USAGE: &str = "\
nimblock-cli — Nimblock FPGA virtualization testbed

USAGE:
  nimblock-cli generate [--scenario S] [--seed N] [--events N]
                        [--batch N --delay-ms N] --output FILE
  nimblock-cli run      [--scheduler NAME] [stimulus options | --input FILE]
                        [--slots N] [--json FILE] [--gantt]
                        [--metrics-out FILE] [--trace-format FMT [--trace-out FILE]]
                        [--check-invariants] [monitor options]
  nimblock-cli compare  [stimulus options | --input FILE] [--slots N]
  nimblock-cli analyze  lint [--root DIR] [--format FMT | --json]
  nimblock-cli analyze  deep [--root DIR] [--format FMT | --json]
                        [--graph-out FILE]
  nimblock-cli analyze  rules
  nimblock-cli analyze  trace FILE [--json] [--mechanism-only]
                        [--reconfig-latency-ms MS]
  nimblock-cli analyze  explain FILE [--format FMT] [--top N]
  nimblock-cli analyze  monitor FILE [--format FMT]
  nimblock-cli analyze  plan TRACE [--sweep NAME=SPEC]... [--slo F]
                        [--replays N] [--format FMT] [--out FILE]
  nimblock-cli faas     [--seed N] [--invocations N] [--mean-gap-ms N]
                        [--scheduler NAME]
  nimblock-cli faas     --arrivals KIND[:RATE] [--seed N] [--invocations N]
                        [--tenants N] [--rate-limit R] [--burst N] [--quota N]
                        [--boards N] [--slots N] [--cluster-threads N]
                        [--shed-horizon-ms N] [--max-items N] [--load F]
                        [--curve F,F,... [--slo-curve-out FILE]]
                        [--format text|md|json] [--json FILE]
                        [--metrics-out FILE] [--record-out FILE]
  nimblock-cli cluster  [--boards N | --sweep-boards N,N,...] [--scheduler NAME]
                        [--dispatch POLICY] [--cluster-threads N]
                        [stimulus options] [monitor options]

STIMULUS OPTIONS (used by run/compare when no --input is given):
  --scenario standard|stress|realtime   congestion condition [stress]
  --seed N                              RNG seed [2023]
  --events N                            events per sequence [20]
  --batch N --delay-ms N                fixed batch/delay instead of a scenario

SCHEDULERS (--scheduler):
  nosharing fcfs rr prema prema-backfill sjf edf
  nimblock nimblock-nopreempt nimblock-nopipe nimblock-nopreempt-nopipe

OTHER:
  --slots N            slots on the modelled device [10]
  --json FILE          write the full report as JSON ('-' for stdout)
  --gantt              print a slot-occupancy Gantt chart of the schedule
  --metrics-out FILE   write run telemetry as Prometheus text ('-' for stdout)
  --trace-format FMT   export the schedule trace: json | chrome | gantt
                       (chrome loads in Perfetto / chrome://tracing)
  --trace-out FILE     where the trace goes ('-' for stdout) [stdout]
  --check-invariants   verify the recorded schedule against the paper's
                       invariants after the run (a violation fails the run)
  --output FILE        where generate writes the stimulus ('-' for stdout)
  --input FILE         load a stimulus JSON instead of generating one
  --boards N           boards in the modelled cluster [2]
  --sweep-boards LIST  run the cluster for each board count (e.g. 1,2,4,8)
                       and tabulate the results
  --dispatch POLICY    board assignment: rr | fewest-apps | least-outstanding
                       [fewest-apps]
  --cluster-threads N  worker threads simulating boards (1 = sequential
                       oracle, 0 = auto); results are byte-identical for
                       every value [1]
  --root DIR           workspace root for analyze lint/deep [.]
  --graph-out FILE     analyze deep: also write the call graph with the
                       union pass walk as Graphviz DOT
  --mechanism-only     analyze trace: skip Nimblock-policy invariants
                       (use for traces from preempting non-Nimblock policies)
  --reconfig-latency-ms MS
                       analyze trace: check that every reconfiguration holds
                       the port exactly MS ms (80 on the default board)
  --format FMT         analyze report format: text | md | json [text]
                       (lint renders md as text)
  --json               analyze lint/deep/trace: same as --format json
  --top N              analyze explain: how many of the slowest applications
                       get their critical-path span trees printed [5]
  --record-out FILE    faas --arrivals: record the serving day as a compact
                       binary trace for `analyze plan`

CAPACITY PLANNING (analyze plan; forecast what-if fleet shapes, §18):
  TRACE                a recorded serving trace (faas ... --record-out FILE)
  --sweep NAME=SPEC    sweep axis, repeatable; axes cross-product. SPEC is
                       lo..hi, lo..hi:step, or a comma list:
                         boards=1..32  slots=2,3  reconfig-ms=40,80
                         policy=rr (cache-aware | rr | fewest-apps |
                                    least-outstanding)
                       [boards=1..8]
  --slo F              offered-attainment target the recommendation must
                       meet, fraction [0.95]
  --replays N          scenarios validated by exact replay; the worst
                       error is the report's error bound [5]
  --out FILE           where the plan report goes ('-' for stdout) [stdout]

FRONT DOOR (faas --arrivals; the streaming serving layer, DESIGN.md §17):
  --arrivals KIND[:RATE] arrival process: steady | diurnal | bursty, with a
                         mean rate in invocations/sec (e.g. bursty:2)
  --tenants N            tenants sharing the door [4]
  --rate-limit R         per-tenant token-bucket rate, invocations/sec
                         (0 = unlimited) [0]
  --burst N              token-bucket burst capacity [16]
  --quota N              per-tenant in-flight quota (0 = unlimited) [0]
  --slots N              slots per board [3]
  --shed-horizon-ms N    base backlog horizon, scaled by the class's 1/3/9
                         priority weight [10000]
  --max-items N          max data items per invocation [4]
  --load F               arrival-rate multiplier for a single run [1.0]
  --curve F,F,...        sweep these load factors into an SLO attainment
                         curve instead of a single run
  --slo-curve-out FILE   where the rendered curve goes ('-' for stdout)

MONITOR OPTIONS (run/cluster; attach a continuous monitor in virtual time):
  --timeseries-out FILE  write the windowed time-series + alerts document as
                         JSON ('-' for stdout); render with `analyze monitor`
  --window-ms N          tumbling-window width in simulated milliseconds [10]
  --slo RULE             declarative SLO rule, repeatable. Grammar:
                           resp:CLASS:pN<=DUR   (CLASS: low|med|high;
                                                 DUR like 250us, 80ms, 2s)
                           util>=N%             per-window slot-utilization floor
                           queue<=N             per-window queue-depth ceiling
                           burn:CLASS:pN<=DUR@n/m  burn rate: fires when the
                                                 ceiling is breached in >= n of
                                                 the last m windows
  --postmortem-out FILE  on an invariant failure or simulation panic, dump a
                         post-mortem bundle (recent windows, flight recorder,
                         implicated span tree) to FILE

Set NIMBLOCK_LOG=debug (or e.g. 'hv=debug,sched=info') for structured logs
on stderr.
";
