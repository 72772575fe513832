//! Hand-rolled argument parsing (the CLI is small enough not to warrant a
//! parser dependency).

use std::error::Error;
use std::fmt;

use nimblock_sim::SimDuration;
use nimblock_workload::Scenario;

/// An argument-parsing error; the message is user-facing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Which scheduling policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SchedulerKind {
    NoSharing,
    Fcfs,
    RoundRobin,
    Prema,
    PremaBackfill,
    Sjf,
    Edf,
    Nimblock,
    NimblockNoPreempt,
    NimblockNoPipe,
    NimblockNoPreemptNoPipe,
}

impl SchedulerKind {
    /// Parses a `--scheduler` value.
    pub fn parse(value: &str) -> Result<Self, CliError> {
        Ok(match value {
            "nosharing" => SchedulerKind::NoSharing,
            "fcfs" => SchedulerKind::Fcfs,
            "rr" => SchedulerKind::RoundRobin,
            "prema" => SchedulerKind::Prema,
            "prema-backfill" => SchedulerKind::PremaBackfill,
            "sjf" => SchedulerKind::Sjf,
            "edf" => SchedulerKind::Edf,
            "nimblock" => SchedulerKind::Nimblock,
            "nimblock-nopreempt" => SchedulerKind::NimblockNoPreempt,
            "nimblock-nopipe" => SchedulerKind::NimblockNoPipe,
            "nimblock-nopreempt-nopipe" => SchedulerKind::NimblockNoPreemptNoPipe,
            other => return Err(err(format!("unknown scheduler '{other}'"))),
        })
    }

    /// Builds the scheduler. The box is `Send` so cluster board workers
    /// can construct policies on their own threads.
    pub fn build(self) -> Box<dyn nimblock_core::Scheduler + Send> {
        use nimblock_core::*;
        match self {
            SchedulerKind::NoSharing => Box::new(NoSharingScheduler::new()),
            SchedulerKind::Fcfs => Box::new(FcfsScheduler::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobinScheduler::new()),
            SchedulerKind::Prema => Box::new(PremaScheduler::new()),
            SchedulerKind::PremaBackfill => Box::new(PremaScheduler::with_backfill()),
            SchedulerKind::Sjf => Box::new(SjfScheduler::new()),
            SchedulerKind::Edf => Box::new(EdfScheduler::default()),
            SchedulerKind::Nimblock => Box::new(NimblockScheduler::default()),
            SchedulerKind::NimblockNoPreempt => {
                Box::new(NimblockScheduler::with_config(NimblockConfig::no_preemption()))
            }
            SchedulerKind::NimblockNoPipe => {
                Box::new(NimblockScheduler::with_config(NimblockConfig::no_pipelining()))
            }
            SchedulerKind::NimblockNoPreemptNoPipe => Box::new(NimblockScheduler::with_config(
                NimblockConfig::no_preemption_no_pipelining(),
            )),
        }
    }
}

/// Stimulus selection shared by the commands.
#[derive(Debug, Clone, PartialEq)]
pub struct StimulusArgs {
    /// Congestion scenario when generating.
    pub scenario: Scenario,
    /// RNG seed.
    pub seed: u64,
    /// Number of events.
    pub events: usize,
    /// Fixed batch size (switches to the fixed-batch generator).
    pub batch: Option<u32>,
    /// Fixed inter-arrival delay (with `batch`; `--delay-ms`).
    pub delay: SimDuration,
    /// Load the stimulus from this JSON file instead of generating.
    pub input: Option<String>,
}

impl Default for StimulusArgs {
    fn default() -> Self {
        StimulusArgs {
            scenario: Scenario::Stress,
            seed: 2023,
            events: 20,
            batch: None,
            delay: SimDuration::from_millis(500),
            input: None,
        }
    }
}

/// `generate` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Stimulus selection.
    pub stimulus: StimulusArgs,
    /// Output path ('-' = stdout).
    pub output: String,
}

/// Schedule-trace output format (`--trace-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// The native `Trace` JSON (round-trips through `nimblock-ser`).
    Json,
    /// Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`.
    Chrome,
    /// ASCII Gantt chart, one row per slot plus the configuration port.
    Gantt,
}

impl TraceFormat {
    /// Parses a `--trace-format` value.
    pub fn parse(value: &str) -> Result<Self, CliError> {
        Ok(match value {
            "json" => TraceFormat::Json,
            "chrome" => TraceFormat::Chrome,
            "gantt" => TraceFormat::Gantt,
            other => return Err(err(format!("unknown trace format '{other}'"))),
        })
    }
}

/// `run` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Stimulus selection.
    pub stimulus: StimulusArgs,
    /// Policy to run.
    pub scheduler: SchedulerKind,
    /// Device slot count.
    pub slots: usize,
    /// Where to write the JSON report, if anywhere ('-' = stdout).
    pub json: Option<String>,
    /// Print a Gantt chart of the schedule (same as `--trace-format gantt`).
    pub gantt: bool,
    /// Where to write the run's metrics as Prometheus text ('-' = stdout).
    pub metrics_out: Option<String>,
    /// Schedule-trace export format, if tracing was requested.
    pub trace_format: Option<TraceFormat>,
    /// Where the trace goes ('-' = stdout; default stdout).
    pub trace_out: Option<String>,
    /// Verify the recorded schedule against the paper's invariants after
    /// the run; a violation fails the command.
    pub check_invariants: bool,
    /// Continuous-monitoring options.
    pub monitor: MonitorArgs,
}

/// Continuous-monitoring flags shared by `run` and `cluster`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorArgs {
    /// Where to write the windowed time-series document ('-' = stdout).
    pub timeseries_out: Option<String>,
    /// Tumbling-window length in simulated time (`--window-ms`).
    pub window: SimDuration,
    /// SLO rules to evaluate as windows close (repeatable `--slo`).
    pub slo: Vec<String>,
    /// Where a post-mortem bundle goes when the run fails ('-' = stdout).
    pub postmortem_out: Option<String>,
}

impl Default for MonitorArgs {
    fn default() -> Self {
        MonitorArgs {
            timeseries_out: None,
            window: SimDuration::from_millis(10),
            slo: Vec::new(),
            postmortem_out: None,
        }
    }
}

impl MonitorArgs {
    /// Whether any monitoring flag was given — the monitor only attaches
    /// (and only then costs anything) when asked for.
    pub fn enabled(&self) -> bool {
        self.timeseries_out.is_some() || !self.slo.is_empty() || self.postmortem_out.is_some()
    }

    /// Builds the monitor configuration from the parsed flags.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] for a zero window or a malformed SLO rule.
    pub fn config(&self) -> Result<nimblock_obs::MonitorConfig, CliError> {
        if self.window.is_zero() {
            return Err(err("--window-ms must be at least 1"));
        }
        let rules = nimblock_obs::parse_rules(&self.slo).map_err(err)?;
        Ok(nimblock_obs::MonitorConfig::with_window_micros(self.window.as_micros()).rules(rules))
    }

    fn parse_flag(
        &mut self,
        flag: &str,
        stream: &mut ArgStream<'_>,
    ) -> Result<bool, CliError> {
        match flag {
            "--timeseries-out" => self.timeseries_out = Some(stream.value_for(flag)?.to_owned()),
            "--window-ms" => self.window = parse_millis(flag, stream.value_for(flag)?)?,
            "--slo" => self.slo.push(stream.value_for(flag)?.to_owned()),
            "--postmortem-out" => self.postmortem_out = Some(stream.value_for(flag)?.to_owned()),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `compare` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Stimulus selection.
    pub stimulus: StimulusArgs,
    /// Device slot count.
    pub slots: usize,
}

/// `faas` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasArgs {
    /// RNG seed for the invocation workload.
    pub seed: u64,
    /// Number of invocations.
    pub invocations: usize,
    /// Mean inter-arrival gap (`--mean-gap-ms`).
    pub mean_gap: SimDuration,
    /// Policy serving the invocations.
    pub scheduler: SchedulerKind,
    /// Front-door serving mode (enabled by `--arrivals`); `None` keeps the
    /// legacy batch gateway.
    pub frontdoor: Option<FrontDoorArgs>,
}

/// Front-door serving flags for the `faas` command (DESIGN.md §17).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontDoorArgs {
    /// Arrival process spec, `kind[:rate]` (steady / diurnal / bursty).
    pub arrivals: String,
    /// Number of tenants sharing the door.
    pub tenants: usize,
    /// Per-tenant token-bucket rate (invocations/sec; 0 = unlimited).
    pub rate_limit: f64,
    /// Token-bucket burst capacity.
    pub burst: u64,
    /// Per-tenant in-flight quota (0 = unlimited).
    pub quota: u64,
    /// Cluster board count.
    pub boards: usize,
    /// Slots per board.
    pub slots: usize,
    /// Worker threads for the serving stage (`1` = sequential oracle,
    /// `0` = auto). The report is byte-identical for every value.
    pub threads: usize,
    /// Base shed horizon (`--shed-horizon-ms`; scaled by the class's 1/3/9
    /// weight).
    pub shed_horizon: SimDuration,
    /// Maximum data items per invocation.
    pub max_items: u32,
    /// Arrival-rate multiplier for a single run.
    pub load: f64,
    /// Load factors to sweep into an SLO attainment curve.
    pub curve: Option<Vec<f64>>,
    /// Where the rendered curve goes ('-' = stdout).
    pub curve_out: Option<String>,
    /// Curve / report render format: text (default), md, or json.
    pub format: ExplainFormat,
    /// Where to write the full serving report as JSON ('-' = stdout).
    pub json: Option<String>,
    /// Where to write the run's metrics as Prometheus text ('-' = stdout).
    pub metrics_out: Option<String>,
    /// Where to write the compact binary serving trace (for
    /// `analyze plan`); recording is off unless asked for.
    pub record_out: Option<String>,
}

impl Default for FrontDoorArgs {
    fn default() -> Self {
        FrontDoorArgs {
            arrivals: "steady:0.1".to_owned(),
            tenants: 4,
            rate_limit: 0.0,
            burst: 16,
            quota: 0,
            boards: 4,
            slots: 3,
            threads: 1,
            shed_horizon: SimDuration::from_secs(10),
            max_items: 4,
            load: 1.0,
            curve: None,
            curve_out: None,
            format: ExplainFormat::Text,
            json: None,
            metrics_out: None,
            record_out: None,
        }
    }
}

/// `cluster` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterArgs {
    /// Stimulus selection.
    pub stimulus: StimulusArgs,
    /// Number of boards.
    pub boards: usize,
    /// Policy on every board.
    pub scheduler: SchedulerKind,
    /// Worker threads simulating boards (`1` = sequential oracle,
    /// `0` = auto). The result is byte-identical for every value.
    pub threads: usize,
    /// How arrivals are assigned to boards.
    pub dispatch: nimblock_cluster::DispatchPolicy,
    /// Board counts to sweep instead of a single run.
    pub sweep_boards: Option<Vec<usize>>,
    /// Continuous-monitoring options (series merged across boards).
    pub monitor: MonitorArgs,
}

/// What `analyze` should look at.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeTarget {
    /// Lint the source tree rooted at the given directory.
    Lint {
        /// Workspace root to lint.
        root: String,
        /// Report format: `text` (default) or `json`; `md` renders as text.
        format: ExplainFormat,
    },
    /// Deep whole-workspace analysis: call-graph reachability passes on
    /// top of the full lint, plus a stale-suppression audit.
    Deep {
        /// Workspace root to analyze.
        root: String,
        /// Report format: `text` (default), `md`, or `json`.
        format: ExplainFormat,
        /// Where to write the call graph as Graphviz DOT, if anywhere.
        graph_out: Option<String>,
    },
    /// Verify a serialized schedule trace (as written by
    /// `run --trace-format json --trace-out FILE`).
    Trace {
        /// Path of the trace JSON.
        path: String,
        /// Report format: `text` (default) or `json` (`--json`).
        format: ExplainFormat,
        /// Skip Nimblock-policy invariants (goal ceilings, preemption
        /// priority order).
        mechanism_only: bool,
        /// Expected reconfiguration latency (`--reconfig-latency-ms`);
        /// enables the exact `cap-latency` check.
        reconfig_latency: Option<SimDuration>,
    },
    /// Explain a serialized schedule trace: response-time attribution
    /// (six exactly-summing components) plus critical-path span trees.
    Explain {
        /// Path of the trace JSON.
        path: String,
        /// Report format: `text` (default), `md`, or `json`.
        format: ExplainFormat,
        /// How many of the slowest applications to detail.
        top: usize,
    },
    /// Render a monitoring document (as written by `--timeseries-out` or
    /// a post-mortem dump): windowed series, alerts, flight recorder.
    Monitor {
        /// Path of the monitoring JSON.
        path: String,
        /// Report format: `text` (default), `md`, or `json`.
        format: ExplainFormat,
    },
    /// Capacity planning from a recorded serving trace (as written by
    /// `faas --arrivals ... --record-out`): sweep counterfactual fleet
    /// shapes through the calibrated estimator and validate a sample of
    /// scenarios by exact replay.
    Plan {
        /// Path of the recorded binary trace.
        path: String,
        /// Sweep axes, `name=spec` (repeatable `--sweep`); empty means
        /// the planner's default boards sweep.
        sweeps: Vec<String>,
        /// Offered-attainment target the recommendation must meet.
        slo: f64,
        /// How many scenarios to validate by exact replay.
        replays: usize,
        /// Report format: `text` (default), `md`, or `json`.
        format: ExplainFormat,
        /// Where the report goes ('-' = stdout; default stdout).
        out: Option<String>,
    },
    /// Print the lint-rule, deep-pass, and trace-invariant catalogs.
    Rules,
}

/// Report format of the `analyze` targets (`--format`, or `--json` for
/// `--format json`).
pub use nimblock_analyze::ExplainFormat;

fn parse_explain_format(value: &str) -> Result<ExplainFormat, CliError> {
    ExplainFormat::parse(value).ok_or_else(|| {
        err(format!(
            "unknown explain format '{value}' (expected text, md, or json)"
        ))
    })
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Command {
    Generate(GenerateArgs),
    Run(RunArgs),
    Compare(CompareArgs),
    Faas(FaasArgs),
    Cluster(ClusterArgs),
    Analyze(AnalyzeTarget),
    Help,
}

fn parse_scenario(value: &str) -> Result<Scenario, CliError> {
    Ok(match value {
        "standard" => Scenario::Standard,
        "stress" => Scenario::Stress,
        "realtime" | "real-time" => Scenario::RealTime,
        other => return Err(err(format!("unknown scenario '{other}'"))),
    })
}

struct ArgStream<'a> {
    args: &'a [String],
    index: usize,
}

impl<'a> ArgStream<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let value = self.args.get(self.index).map(String::as_str);
        self.index += 1;
        value
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next()
            .ok_or_else(|| err(format!("{flag} needs a value")))
    }
}

/// Parses a full command line (without the program name).
///
/// # Errors
///
/// Returns a user-facing [`CliError`] for unknown commands, flags, or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut stream = ArgStream { args, index: 0 };
    let Some(command) = stream.next() else {
        return Ok(Command::Help);
    };
    match command {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let mut stimulus = StimulusArgs::default();
            let mut output = None;
            while let Some(flag) = stream.next() {
                match flag {
                    "--output" => output = Some(stream.value_for(flag)?.to_owned()),
                    other => parse_stimulus_flag(&mut stimulus, other, &mut stream)?,
                }
            }
            Ok(Command::Generate(GenerateArgs {
                stimulus,
                output: output.ok_or_else(|| err("generate requires --output"))?,
            }))
        }
        "run" => {
            let mut stimulus = StimulusArgs::default();
            let mut scheduler = SchedulerKind::Nimblock;
            let mut slots = 10usize;
            let mut json = None;
            let mut gantt = false;
            let mut metrics_out = None;
            let mut trace_format = None;
            let mut trace_out = None;
            let mut check_invariants = false;
            let mut monitor = MonitorArgs::default();
            while let Some(flag) = stream.next() {
                match flag {
                    "--scheduler" => scheduler = SchedulerKind::parse(stream.value_for(flag)?)?,
                    "--slots" => slots = parse_number(flag, stream.value_for(flag)?)?,
                    "--json" => json = Some(stream.value_for(flag)?.to_owned()),
                    "--gantt" => gantt = true,
                    "--metrics-out" => metrics_out = Some(stream.value_for(flag)?.to_owned()),
                    "--trace-format" => {
                        trace_format = Some(TraceFormat::parse(stream.value_for(flag)?)?)
                    }
                    "--trace-out" => trace_out = Some(stream.value_for(flag)?.to_owned()),
                    "--check-invariants" => check_invariants = true,
                    other if monitor.parse_flag(other, &mut stream)? => {}
                    other => parse_stimulus_flag(&mut stimulus, other, &mut stream)?,
                }
            }
            if slots == 0 {
                return Err(err("--slots must be at least 1"));
            }
            if trace_out.is_some() && trace_format.is_none() {
                return Err(err("--trace-out requires --trace-format"));
            }
            monitor.config()?; // validate rules and window at parse time
            Ok(Command::Run(RunArgs {
                stimulus,
                scheduler,
                slots,
                json,
                gantt,
                metrics_out,
                trace_format,
                trace_out,
                check_invariants,
                monitor,
            }))
        }
        "analyze" => parse_analyze(&mut stream).map(Command::Analyze),
        "faas" => {
            let mut args = FaasArgs {
                seed: 2023,
                invocations: 60,
                mean_gap: SimDuration::from_millis(150),
                scheduler: SchedulerKind::Nimblock,
                frontdoor: None,
            };
            let mut door = FrontDoorArgs::default();
            let mut arrivals_given = false;
            let mut door_flag: Option<String> = None;
            while let Some(flag) = stream.next() {
                match flag {
                    "--seed" => args.seed = parse_number(flag, stream.value_for(flag)?)?,
                    "--invocations" => {
                        args.invocations = parse_number(flag, stream.value_for(flag)?)?
                    }
                    "--mean-gap-ms" => args.mean_gap = parse_millis(flag, stream.value_for(flag)?)?,
                    "--scheduler" => {
                        args.scheduler = SchedulerKind::parse(stream.value_for(flag)?)?
                    }
                    "--arrivals" => {
                        let value = stream.value_for(flag)?;
                        nimblock_workload::ArrivalProcess::parse(value)
                            .map_err(|e| err(format!("--arrivals: {e}")))?;
                        door.arrivals = value.to_owned();
                        arrivals_given = true;
                    }
                    "--tenants" => {
                        door.tenants = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--rate-limit" => {
                        door.rate_limit = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--burst" => {
                        door.burst = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--quota" => {
                        door.quota = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--boards" => {
                        door.boards = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--slots" => {
                        door.slots = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--cluster-threads" | "--threads" => {
                        door.threads = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--shed-horizon-ms" => {
                        door.shed_horizon = parse_millis(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--max-items" => {
                        door.max_items = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--load" => {
                        door.load = parse_number(flag, stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--curve" => {
                        door.curve =
                            Some(parse_list(flag, stream.value_for(flag)?, "load factor")?);
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--slo-curve-out" => {
                        door.curve_out = Some(stream.value_for(flag)?.to_owned());
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--format" => {
                        door.format = parse_explain_format(stream.value_for(flag)?)?;
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--json" => {
                        door.json = Some(stream.value_for(flag)?.to_owned());
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--metrics-out" => {
                        door.metrics_out = Some(stream.value_for(flag)?.to_owned());
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    "--record-out" => {
                        door.record_out = Some(stream.value_for(flag)?.to_owned());
                        door_flag.get_or_insert_with(|| flag.to_owned());
                    }
                    other => return Err(err(format!("unknown flag '{other}'"))),
                }
            }
            if args.mean_gap.is_zero() {
                return Err(err("--mean-gap-ms must be at least 1"));
            }
            if arrivals_given {
                // Every load factor scales the arrival rate; the product,
                // not the factor alone, must be a usable rate.
                let rate = nimblock_workload::ArrivalProcess::parse(&door.arrivals)
                    .map_err(|e| err(format!("--arrivals: {e}")))?
                    .rate_per_sec();
                let curve = door.curve.iter().flatten().map(|&factor| ("--curve", factor));
                for (flag, factor) in std::iter::once(("--load", door.load)).chain(curve) {
                    let scaled = rate * factor;
                    if !(scaled.is_finite() && scaled > 0.0) {
                        return Err(err(format!(
                            "{flag} {factor:?} scales the arrival rate {rate:?}/s to {scaled:?}/s; \
                             the scaled rate must be finite and positive"
                        )));
                    }
                }
                if door.tenants == 0 {
                    return Err(err("--tenants must be at least 1"));
                }
                if door.boards == 0 || door.slots == 0 {
                    return Err(err("--boards and --slots must be at least 1"));
                }
                if door.max_items == 0 {
                    return Err(err("--max-items must be at least 1"));
                }
                if door.curve_out.is_some() && door.curve.is_none() {
                    return Err(err("--slo-curve-out requires --curve"));
                }
                if door.record_out.as_deref() == Some("-") {
                    return Err(err("--record-out writes a binary trace; '-' is not supported"));
                }
                if door.record_out.is_some() && door.curve.is_some() {
                    return Err(err(
                        "--record-out records a single run; it cannot be combined with --curve",
                    ));
                }
                args.frontdoor = Some(door);
            } else if let Some(flag) = door_flag {
                return Err(err(format!(
                    "{flag} is a front-door flag; it requires --arrivals KIND[:RATE]"
                )));
            }
            Ok(Command::Faas(args))
        }
        "cluster" => {
            let mut stimulus = StimulusArgs::default();
            let mut boards = 2usize;
            let mut scheduler = SchedulerKind::Nimblock;
            let mut threads = 1usize;
            let mut dispatch = nimblock_cluster::DispatchPolicy::FewestApps;
            let mut sweep_boards = None;
            let mut monitor = MonitorArgs::default();
            while let Some(flag) = stream.next() {
                match flag {
                    "--boards" => boards = parse_number(flag, stream.value_for(flag)?)?,
                    "--scheduler" => scheduler = SchedulerKind::parse(stream.value_for(flag)?)?,
                    "--cluster-threads" | "--threads" => {
                        threads = parse_number(flag, stream.value_for(flag)?)?
                    }
                    "--dispatch" => {
                        let value = stream.value_for(flag)?;
                        dispatch = nimblock_cluster::DispatchPolicy::parse(value)
                            .ok_or_else(|| {
                                err(format!(
                                    "unknown dispatch policy '{value}' \
                                     (expected rr, fewest-apps, or least-outstanding)"
                                ))
                            })?;
                    }
                    "--sweep-boards" => {
                        let counts: Vec<usize> =
                            parse_list(flag, stream.value_for(flag)?, "board count")?;
                        if counts.contains(&0) {
                            return Err(err("--sweep-boards entries must be at least 1"));
                        }
                        sweep_boards = Some(counts);
                    }
                    other if monitor.parse_flag(other, &mut stream)? => {}
                    other => parse_stimulus_flag(&mut stimulus, other, &mut stream)?,
                }
            }
            if boards == 0 {
                return Err(err("--boards must be at least 1"));
            }
            monitor.config()?; // validate rules and window at parse time
            Ok(Command::Cluster(ClusterArgs {
                stimulus,
                boards,
                scheduler,
                threads,
                dispatch,
                sweep_boards,
                monitor,
            }))
        }
        "compare" => {
            let mut stimulus = StimulusArgs::default();
            let mut slots = 10usize;
            while let Some(flag) = stream.next() {
                match flag {
                    "--slots" => slots = parse_number(flag, stream.value_for(flag)?)?,
                    other => parse_stimulus_flag(&mut stimulus, other, &mut stream)?,
                }
            }
            if slots == 0 {
                return Err(err("--slots must be at least 1"));
            }
            Ok(Command::Compare(CompareArgs { stimulus, slots }))
        }
        other => Err(err(format!("unknown command '{other}'"))),
    }
}

/// Parses `analyze TARGET [flags]`. Each target keeps the flags it has
/// always had: `--format text|md|json` on every report but `trace`, and
/// `--json`, short for `--format json`, on `lint`, `deep` and `trace`.
fn parse_analyze(stream: &mut ArgStream<'_>) -> Result<AnalyzeTarget, CliError> {
    const TARGETS: &str = "lint, deep, trace, explain, monitor, plan, or rules";
    let target = match stream.next() {
        Some(target @ ("lint" | "deep" | "trace" | "explain" | "monitor" | "plan" | "rules")) => {
            target
        }
        Some(other) => {
            return Err(err(format!("unknown analyze target '{other}' (expected {TARGETS})")))
        }
        None => return Err(err(format!("analyze needs a target: {TARGETS}"))),
    };
    let mut path = None;
    let mut format = ExplainFormat::Text;
    let mut root = ".".to_owned();
    let mut graph_out = None;
    let mut mechanism_only = false;
    let mut reconfig_latency = None;
    let mut top = 5usize;
    let mut sweeps = Vec::new();
    let mut slo = 0.95f64;
    let mut replays = 5usize;
    let mut out = None;
    while let Some(flag) = stream.next() {
        match (target, flag) {
            ("lint" | "deep" | "explain" | "monitor" | "plan", "--format") => {
                format = parse_explain_format(stream.value_for(flag)?)?
            }
            ("lint" | "deep" | "trace", "--json") => format = ExplainFormat::Json,
            ("lint" | "deep", "--root") => root = stream.value_for(flag)?.to_owned(),
            ("deep", "--graph-out") => graph_out = Some(stream.value_for(flag)?.to_owned()),
            ("trace", "--mechanism-only") => mechanism_only = true,
            ("trace", "--reconfig-latency-ms") => {
                reconfig_latency = Some(parse_millis(flag, stream.value_for(flag)?)?)
            }
            ("explain", "--top") => top = parse_number(flag, stream.value_for(flag)?)?,
            ("plan", "--sweep") => sweeps.push(stream.value_for(flag)?.to_owned()),
            ("plan", "--slo") => slo = parse_number(flag, stream.value_for(flag)?)?,
            ("plan", "--replays") => replays = parse_number(flag, stream.value_for(flag)?)?,
            ("plan", "--out") => out = Some(stream.value_for(flag)?.to_owned()),
            ("trace" | "explain" | "monitor" | "plan", file)
                if !file.starts_with('-') && path.is_none() =>
            {
                path = Some(file.to_owned())
            }
            _ => return Err(err(format!("unknown flag '{flag}'"))),
        }
    }
    let missing = |what: &str| err(format!("analyze {target} needs a {what}"));
    Ok(match target {
        "lint" => AnalyzeTarget::Lint { root, format },
        "deep" => AnalyzeTarget::Deep { root, format, graph_out },
        "trace" => AnalyzeTarget::Trace {
            path: path.ok_or_else(|| missing("FILE"))?,
            format,
            mechanism_only,
            reconfig_latency,
        },
        "explain" => {
            AnalyzeTarget::Explain { path: path.ok_or_else(|| missing("FILE"))?, format, top }
        }
        "monitor" => AnalyzeTarget::Monitor { path: path.ok_or_else(|| missing("FILE"))?, format },
        "plan" => {
            let path = path.ok_or_else(|| missing("TRACE file"))?;
            if !(0.0..=1.0).contains(&slo) {
                return Err(err("--slo must be a fraction in 0..=1"));
            }
            AnalyzeTarget::Plan { path, sweeps, slo, replays, format, out }
        }
        _ => AnalyzeTarget::Rules,
    })
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| err(format!("{flag}: cannot parse '{value}'")))
}

/// Parses a millisecond flag. Every millisecond flag converts here, so a
/// value whose microseconds overflow `u64` is an error, never a wrapped
/// span.
fn parse_millis(flag: &str, value: &str) -> Result<SimDuration, CliError> {
    let millis: u64 = parse_number(flag, value)?;
    millis
        .checked_mul(1_000)
        .map(SimDuration::from_micros)
        .ok_or_else(|| {
            err(format!("{flag} {millis} is too large (at most {} ms)", u64::MAX / 1_000))
        })
}

/// Parses a comma-separated list flag of `what`s; an empty list or an
/// empty entry is an error that names the flag.
fn parse_list<T: std::str::FromStr>(
    flag: &str,
    list: &str,
    what: &str,
) -> Result<Vec<T>, CliError> {
    if list.is_empty() {
        return Err(err(format!("{flag} needs at least one {what}")));
    }
    list.split(',')
        .map(|part| match part {
            "" => Err(err(format!("{flag} '{list}' has an empty {what}"))),
            part => parse_number(flag, part),
        })
        .collect()
}

fn parse_stimulus_flag(
    stimulus: &mut StimulusArgs,
    flag: &str,
    stream: &mut ArgStream<'_>,
) -> Result<(), CliError> {
    match flag {
        "--scenario" => stimulus.scenario = parse_scenario(stream.value_for(flag)?)?,
        "--seed" => stimulus.seed = parse_number(flag, stream.value_for(flag)?)?,
        "--events" => stimulus.events = parse_number(flag, stream.value_for(flag)?)?,
        "--batch" => stimulus.batch = Some(parse_number(flag, stream.value_for(flag)?)?),
        "--delay-ms" => stimulus.delay = parse_millis(flag, stream.value_for(flag)?)?,
        "--input" => stimulus.input = Some(stream.value_for(flag)?.to_owned()),
        other => return Err(err(format!("unknown flag '{other}'"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_and_help_lines() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(run) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.scheduler, SchedulerKind::Nimblock);
        assert_eq!(run.slots, 10);
        assert_eq!(run.stimulus.seed, 2023);
        assert!(!run.gantt);
    }

    #[test]
    fn run_with_everything() {
        let line = "run --scheduler prema --scenario standard --seed 7 --events 5 --slots 4 --json - --gantt";
        let Command::Run(run) = parse(&argv(line)).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.scheduler, SchedulerKind::Prema);
        assert_eq!(run.stimulus.scenario, Scenario::Standard);
        assert_eq!(run.stimulus.seed, 7);
        assert_eq!(run.stimulus.events, 5);
        assert_eq!(run.slots, 4);
        assert_eq!(run.json.as_deref(), Some("-"));
        assert!(run.gantt);
    }

    #[test]
    fn generate_requires_output() {
        assert!(parse(&argv("generate")).is_err());
        let Command::Generate(generate) =
            parse(&argv("generate --batch 5 --delay-ms 500 --output s.json")).unwrap()
        else {
            panic!("expected generate");
        };
        assert_eq!(generate.stimulus.batch, Some(5));
        assert_eq!(generate.output, "s.json");
    }

    #[test]
    fn compare_parses_input_files() {
        let Command::Compare(compare) = parse(&argv("compare --input stim.json --slots 6")).unwrap()
        else {
            panic!("expected compare");
        };
        assert_eq!(compare.stimulus.input.as_deref(), Some("stim.json"));
        assert_eq!(compare.slots, 6);
    }

    #[test]
    fn faas_and_cluster_commands_parse() {
        let Command::Faas(f) =
            parse(&argv("faas --seed 9 --invocations 30 --mean-gap-ms 80 --scheduler prema")).unwrap()
        else {
            panic!("expected faas");
        };
        assert_eq!(f.seed, 9);
        assert_eq!(f.invocations, 30);
        assert_eq!(f.scheduler, SchedulerKind::Prema);
        assert_eq!(f.frontdoor, None, "legacy gateway by default");

        let Command::Cluster(c) = parse(&argv("cluster --boards 4 --events 6")).unwrap() else {
            panic!("expected cluster");
        };
        assert_eq!(c.boards, 4);
        assert_eq!(c.stimulus.events, 6);
        assert_eq!(c.threads, 1, "sequential oracle by default");
        assert_eq!(c.dispatch, nimblock_cluster::DispatchPolicy::FewestApps);
        assert_eq!(c.sweep_boards, None);
        assert!(parse(&argv("cluster --boards 0")).is_err());
    }

    #[test]
    fn cluster_parallelism_flags_parse() {
        let line = "cluster --boards 8 --cluster-threads 4 --dispatch least-outstanding";
        let Command::Cluster(c) = parse(&argv(line)).unwrap() else {
            panic!("expected cluster");
        };
        assert_eq!(c.boards, 8);
        assert_eq!(c.threads, 4);
        assert_eq!(c.dispatch, nimblock_cluster::DispatchPolicy::LeastOutstanding);
        // --threads is an accepted alias; 0 means auto.
        let Command::Cluster(c) = parse(&argv("cluster --threads 0 --dispatch rr")).unwrap()
        else {
            panic!("expected cluster");
        };
        assert_eq!(c.threads, 0);
        assert_eq!(c.dispatch, nimblock_cluster::DispatchPolicy::RoundRobin);
        assert!(parse(&argv("cluster --dispatch hashring")).is_err());
    }

    #[test]
    fn cluster_sweep_flag_parses_lists() {
        let Command::Cluster(c) =
            parse(&argv("cluster --sweep-boards 1,2,4,8 --events 6")).unwrap()
        else {
            panic!("expected cluster");
        };
        assert_eq!(c.sweep_boards, Some(vec![1, 2, 4, 8]));
        assert!(parse(&argv("cluster --sweep-boards 1,0,4")).is_err());
        assert!(parse(&argv("cluster --sweep-boards nope")).is_err());
    }

    #[test]
    fn empty_lists_and_empty_entries_are_named() {
        // `argv` splits on whitespace, so these lines are built by hand.
        let error = |line: &[&str]| {
            let args: Vec<String> = line.iter().map(|&a| a.to_owned()).collect();
            parse(&args).unwrap_err().to_string()
        };
        for (list, message) in [
            ("", "--curve needs at least one load factor"),
            (",", "--curve ',' has an empty load factor"),
            ("1,,2", "--curve '1,,2' has an empty load factor"),
        ] {
            assert_eq!(error(&["faas", "--arrivals", "steady:1", "--curve", list]), message);
        }
        for (list, message) in [
            ("", "--sweep-boards needs at least one board count"),
            ("2,", "--sweep-boards '2,' has an empty board count"),
        ] {
            assert_eq!(error(&["cluster", "--sweep-boards", list]), message);
        }
    }

    #[test]
    fn millisecond_flags_reject_values_whose_microseconds_overflow() {
        let largest = u64::MAX / 1_000;
        for line in [
            "run --delay-ms",
            "generate --output - --delay-ms",
            "cluster --delay-ms",
            "compare --delay-ms",
            "run --window-ms",
            "cluster --window-ms",
            "faas --mean-gap-ms",
            "faas --arrivals steady:1 --shed-horizon-ms",
            "analyze trace t.json --reconfig-latency-ms",
        ] {
            let err = parse(&argv(&format!("{line} {}", largest + 1))).unwrap_err();
            assert!(err.to_string().contains("is too large"), "{line}: {err}");
            assert!(parse(&argv(&format!("{line} {largest}"))).is_ok(), "{line}");
        }
        let Command::Run(run) = parse(&argv(&format!("run --delay-ms {largest}"))).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.stimulus.delay.as_micros(), largest * 1_000);
    }

    #[test]
    fn run_telemetry_flags_parse() {
        let line = "run --metrics-out - --trace-format chrome --trace-out t.json";
        let Command::Run(run) = parse(&argv(line)).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.metrics_out.as_deref(), Some("-"));
        assert_eq!(run.trace_format, Some(TraceFormat::Chrome));
        assert_eq!(run.trace_out.as_deref(), Some("t.json"));
        for (name, format) in [
            ("json", TraceFormat::Json),
            ("chrome", TraceFormat::Chrome),
            ("gantt", TraceFormat::Gantt),
        ] {
            assert_eq!(TraceFormat::parse(name).unwrap(), format);
        }
        assert!(TraceFormat::parse("svg").is_err());
        // --trace-out without a format is rejected.
        assert!(parse(&argv("run --trace-out t.json")).is_err());
    }

    #[test]
    fn analyze_explain_parses() {
        assert_eq!(
            parse(&argv("analyze explain t.json --format md --top 3")).unwrap(),
            Command::Analyze(AnalyzeTarget::Explain {
                path: "t.json".into(),
                format: ExplainFormat::Markdown,
                top: 3,
            })
        );
        // Defaults: text format, top 5.
        assert_eq!(
            parse(&argv("analyze explain t.json")).unwrap(),
            Command::Analyze(AnalyzeTarget::Explain {
                path: "t.json".into(),
                format: ExplainFormat::Text,
                top: 5,
            })
        );
        assert!(parse(&argv("analyze explain")).is_err());
        assert!(parse(&argv("analyze explain t.json --format svg")).is_err());
    }

    #[test]
    fn analyze_json_is_an_alias_for_format_json() {
        for target in ["lint", "deep"] {
            assert_eq!(
                parse(&argv(&format!("analyze {target} --json"))).unwrap(),
                parse(&argv(&format!("analyze {target} --format json"))).unwrap(),
                "{target}"
            );
        }
        let Command::Analyze(AnalyzeTarget::Trace { format, .. }) =
            parse(&argv("analyze trace t.json --json")).unwrap()
        else {
            panic!("expected analyze trace");
        };
        assert_eq!(format, ExplainFormat::Json);
        // Each target keeps the flags it has always had.
        assert!(parse(&argv("analyze trace t.json --format json")).is_err());
        assert!(parse(&argv("analyze explain t.json --json")).is_err());
        assert_eq!(
            parse(&argv("analyze lint --root sub/dir --format md")).unwrap(),
            Command::Analyze(AnalyzeTarget::Lint {
                root: "sub/dir".into(),
                format: ExplainFormat::Markdown,
            })
        );
    }

    #[test]
    fn analyze_trace_and_rules_parse() {
        assert_eq!(
            parse(&argv("analyze trace t.json --mechanism-only --reconfig-latency-ms 80")).unwrap(),
            Command::Analyze(AnalyzeTarget::Trace {
                path: "t.json".into(),
                format: ExplainFormat::Text,
                mechanism_only: true,
                reconfig_latency: Some(SimDuration::from_millis(80)),
            })
        );
        assert!(parse(&argv("analyze trace")).is_err());
        assert!(parse(&argv("analyze trace t.json --reconfig-latency-ms")).is_err());
        assert!(parse(&argv("analyze trace t.json --reconfig-latency-ms -1")).is_err());
        let err = parse(&argv("analyze trace t.json --reconfig-latency-ms 18446744073709551615"))
            .unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");
        assert_eq!(parse(&argv("analyze rules")).unwrap(), Command::Analyze(AnalyzeTarget::Rules));
        assert!(parse(&argv("analyze rules --json")).is_err());
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("analyze frobnicate")).is_err());
        // Flags belong to their target.
        assert!(parse(&argv("analyze lint --top 3")).is_err());
        assert!(parse(&argv("analyze explain t.json --root .")).is_err());
    }

    #[test]
    fn monitor_flags_parse_on_run_and_cluster() {
        let line = "run --timeseries-out ts.json --window-ms 50 \
                    --slo resp:high:p95<=200ms --slo util>=30% --postmortem-out pm.json";
        let Command::Run(run) = parse(&argv(line)).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(run.monitor.timeseries_out.as_deref(), Some("ts.json"));
        assert_eq!(run.monitor.window, SimDuration::from_millis(50));
        assert_eq!(run.monitor.slo, vec!["resp:high:p95<=200ms", "util>=30%"]);
        assert_eq!(run.monitor.postmortem_out.as_deref(), Some("pm.json"));
        assert!(run.monitor.enabled());
        let config = run.monitor.config().unwrap();
        assert_eq!(config.window_micros, 50_000);
        assert_eq!(config.rules.len(), 2);

        let Command::Cluster(c) =
            parse(&argv("cluster --boards 2 --timeseries-out - --slo queue<=4")).unwrap()
        else {
            panic!("expected cluster");
        };
        assert_eq!(c.monitor.timeseries_out.as_deref(), Some("-"));
        assert_eq!(c.monitor.window, SimDuration::from_millis(10), "default window");
        assert!(c.monitor.enabled());

        // Defaults: monitoring off, nothing attached.
        let Command::Run(run) = parse(&argv("run")).unwrap() else {
            panic!("expected run");
        };
        assert!(!run.monitor.enabled());
        // Malformed rules and zero windows are rejected at parse time.
        assert!(parse(&argv("run --slo nonsense")).is_err());
        assert!(parse(&argv("run --window-ms 0 --timeseries-out -")).is_err());
    }

    #[test]
    fn analyze_monitor_parses() {
        assert_eq!(
            parse(&argv("analyze monitor ts.json --format md")).unwrap(),
            Command::Analyze(AnalyzeTarget::Monitor {
                path: "ts.json".into(),
                format: ExplainFormat::Markdown,
            })
        );
        assert!(parse(&argv("analyze monitor")).is_err());
        assert!(parse(&argv("analyze monitor ts.json --format svg")).is_err());
    }

    #[test]
    fn faas_front_door_flags_parse() {
        let line = "faas --arrivals bursty:2 --invocations 500 --tenants 8 --rate-limit 0.5 \
                    --burst 4 --quota 2 --boards 6 --slots 2 --cluster-threads 4 \
                    --shed-horizon-ms 250 --max-items 2 --load 3.5";
        let Command::Faas(f) = parse(&argv(line)).unwrap() else {
            panic!("expected faas");
        };
        let door = f.frontdoor.expect("front-door mode");
        assert_eq!(door.arrivals, "bursty:2");
        assert_eq!(door.tenants, 8);
        assert_eq!(door.rate_limit, 0.5);
        assert_eq!(door.burst, 4);
        assert_eq!(door.quota, 2);
        assert_eq!(door.boards, 6);
        assert_eq!(door.slots, 2);
        assert_eq!(door.threads, 4);
        assert_eq!(door.shed_horizon, SimDuration::from_millis(250));
        assert_eq!(door.max_items, 2);
        assert_eq!(door.load, 3.5);
        assert_eq!(door.curve, None);

        // Flag order does not matter: front-door flags may precede --arrivals.
        let Command::Faas(f) =
            parse(&argv("faas --tenants 2 --arrivals steady")).unwrap()
        else {
            panic!("expected faas");
        };
        assert_eq!(f.frontdoor.expect("front-door mode").tenants, 2);
    }

    #[test]
    fn faas_front_door_curve_and_outputs_parse() {
        let line = "faas --arrivals steady:0.1 --curve 0.25,1,4 --slo-curve-out curve.json \
                    --format json --json report.json --metrics-out -";
        let Command::Faas(f) = parse(&argv(line)).unwrap() else {
            panic!("expected faas");
        };
        let door = f.frontdoor.expect("front-door mode");
        assert_eq!(door.curve, Some(vec![0.25, 1.0, 4.0]));
        assert_eq!(door.curve_out.as_deref(), Some("curve.json"));
        assert_eq!(door.format, ExplainFormat::Json);
        assert_eq!(door.json.as_deref(), Some("report.json"));
        assert_eq!(door.metrics_out.as_deref(), Some("-"));
    }

    #[test]
    fn faas_front_door_flags_are_validated() {
        // Front-door flags without --arrivals name the offending flag.
        let err = parse(&argv("faas --tenants 2")).unwrap_err();
        assert!(err.to_string().contains("--tenants"), "{err}");
        assert!(err.to_string().contains("--arrivals"), "{err}");
        // Malformed processes, degenerate shapes, and orphan outputs.
        assert!(parse(&argv("faas --arrivals warp:10")).is_err());
        assert!(parse(&argv("faas --arrivals steady --tenants 0")).is_err());
        assert!(parse(&argv("faas --arrivals steady --boards 0")).is_err());
        assert!(parse(&argv("faas --arrivals steady --max-items 0")).is_err());
        assert!(parse(&argv("faas --arrivals steady --curve -1")).is_err());
        assert!(parse(&argv("faas --arrivals steady --slo-curve-out c.json")).is_err());
    }

    #[test]
    fn analyze_plan_parses() {
        let line = "analyze plan t.nbt --sweep boards=1..8 --sweep slots=2,3 \
                    --slo 0.9 --replays 3 --format md --out plan.md";
        assert_eq!(
            parse(&argv(line)).unwrap(),
            Command::Analyze(AnalyzeTarget::Plan {
                path: "t.nbt".into(),
                sweeps: vec!["boards=1..8".into(), "slots=2,3".into()],
                slo: 0.9,
                replays: 3,
                format: ExplainFormat::Markdown,
                out: Some("plan.md".into()),
            })
        );
        // Defaults: boards sweep comes from the planner, 95% target,
        // five validation replays, text on stdout.
        let Command::Analyze(AnalyzeTarget::Plan { sweeps, slo, replays, format, out, .. }) =
            parse(&argv("analyze plan t.nbt")).unwrap()
        else {
            panic!("expected analyze plan");
        };
        assert!(sweeps.is_empty());
        assert_eq!(slo, 0.95);
        assert_eq!(replays, 5);
        assert_eq!(format, ExplainFormat::Text);
        assert_eq!(out, None);
        assert!(parse(&argv("analyze plan")).is_err());
        assert!(parse(&argv("analyze plan t.nbt --slo 1.5")).is_err());
        assert!(parse(&argv("analyze plan t.nbt --format svg")).is_err());
        let err = parse(&argv("analyze bogus")).unwrap_err();
        assert!(err.to_string().contains("plan"), "{err}");
    }

    #[test]
    fn record_out_flags_parse() {
        let Command::Faas(f) =
            parse(&argv("faas --arrivals bursty:2 --record-out day.nbt")).unwrap()
        else {
            panic!("expected faas");
        };
        assert_eq!(
            f.frontdoor.expect("front-door mode").record_out.as_deref(),
            Some("day.nbt")
        );
        // Recording is a front-door flag, writes binary (no '-'), and
        // captures exactly one run (no --curve).
        assert!(parse(&argv("faas --record-out day.nbt")).is_err());
        assert!(parse(&argv("faas --arrivals steady --record-out -")).is_err());
        assert!(parse(&argv("faas --arrivals steady --curve 1,2 --record-out d.nbt")).is_err());

        // Only the serving front door records; the engine commands take a
        // stimulus file through `generate --output` and `--input` instead.
        for line in ["run --record-out stim.nbt", "cluster --boards 4 --record-out stim.nbt"] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.to_string().contains("unknown flag '--record-out'"), "{line}: {err}");
        }
    }

    #[test]
    fn all_scheduler_names_parse() {
        for name in [
            "nosharing",
            "fcfs",
            "rr",
            "prema",
            "prema-backfill",
            "sjf",
            "edf",
            "nimblock",
            "nimblock-nopreempt",
            "nimblock-nopipe",
            "nimblock-nopreempt-nopipe",
        ] {
            assert!(SchedulerKind::parse(name).is_ok(), "{name}");
        }
        assert!(SchedulerKind::parse("premature").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let err = parse(&argv("run --scheduler")).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
        let err = parse(&argv("run --frobnicate")).unwrap_err();
        assert!(err.to_string().contains("unknown flag"));
        let err = parse(&argv("launch")).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        let err = parse(&argv("run --events many")).unwrap_err();
        assert!(err.to_string().contains("cannot parse"));
    }
}
