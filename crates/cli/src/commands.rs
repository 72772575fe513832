//! Command execution.

use std::fs;
use std::io::Write;

use nimblock_analyze::ExplainFormat;
use nimblock_core::Testbed;
use nimblock_fpga::DeviceConfig;
use nimblock_metrics::{fmt3, harmonic_speedup, Summary, TextTable};
use nimblock_sim::SimDuration;
use nimblock_workload::{fixed_batch_sequence, generate, EventSequence};

use crate::args::{
    AnalyzeTarget, ClusterArgs, Command, CompareArgs, FaasArgs, GenerateArgs,
    RunArgs, SchedulerKind, StimulusArgs, TraceFormat,
};
use crate::CliError;

/// Builds the stimulus described by `args`: generated from a scenario, a
/// fixed-batch generator, or loaded from a JSON file.
///
/// # Errors
///
/// Returns a [`CliError`] if an `--input` file cannot be read or parsed.
pub fn make_sequence(args: &StimulusArgs) -> Result<EventSequence, CliError> {
    if let Some(path) = &args.input {
        return load_sequence(path);
    }
    Ok(match args.batch {
        Some(batch) => fixed_batch_sequence(
            args.seed,
            args.events,
            batch,
            SimDuration::from_millis(args.delay_ms),
        ),
        None => generate(args.seed, args.events, args.scenario),
    })
}

/// Loads an [`EventSequence`] from a JSON file.
///
/// # Errors
///
/// Returns a [`CliError`] describing the I/O or parse failure.
pub fn load_sequence(path: &str) -> Result<EventSequence, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    nimblock_ser::from_str(&text).map_err(|e| CliError(format!("cannot parse {path}: {e}")))
}

/// Rejects a stimulus with a task that fits no slot of `config`. The
/// hypervisor refuses such an application at admission, aborting the run,
/// so the check runs when the stimulus is loaded and names the culprit.
///
/// # Errors
///
/// Returns a [`CliError`] naming the first such application and task.
fn check_placeable(events: &EventSequence, config: &DeviceConfig) -> Result<(), CliError> {
    let device = nimblock_fpga::Device::new(config.clone());
    for (index, event) in events.iter().enumerate() {
        for (task, spec) in event.app().graph().tasks() {
            let fits = device
                .slots()
                .iter()
                .any(|slot| spec.resources().fits_within(slot.resources()));
            if !fits {
                return Err(CliError(format!(
                    "event {index}: application '{}' cannot run on this device: \
                     {task} ('{}') fits no slot",
                    event.app().name(),
                    spec.name(),
                )));
            }
        }
    }
    Ok(())
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "unknown panic".to_owned()
    }
}

fn write_output(path: &str, contents: &str, out: &mut dyn Write) -> Result<(), CliError> {
    if path == "-" {
        writeln!(out, "{contents}").map_err(|e| CliError(e.to_string()))
    } else {
        fs::write(path, contents).map_err(|e| CliError(format!("cannot write {path}: {e}")))
    }
}

fn run_command(args: &RunArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let events = make_sequence(&args.stimulus)?;
    let config = DeviceConfig::zcu106().with_slot_count(args.slots);
    check_placeable(&events, &config)?;
    // With pre-loaded bitstreams (SD bandwidth 0) every reconfiguration takes
    // exactly the nominal CAP latency, so the invariant check can be exact.
    let exact_reconfig_latency = (config.sd_bandwidth_bytes_per_sec == 0)
        .then(|| nimblock_fpga::Device::new(config.clone()).nominal_reconfig_latency());
    let mut testbed = Testbed::new(args.scheduler.build()).with_device_config(config);
    let registry = args.metrics_out.as_ref().map(|_| nimblock_obs::Registry::new());
    if let Some(registry) = &registry {
        testbed = testbed.with_metrics(registry.clone());
    }
    let monitor_config = if args.monitor.enabled() {
        Some(args.monitor.config()?)
    } else {
        None
    };
    let monitor = monitor_config
        .clone()
        .map(|config| nimblock_obs::MonitorHandle::new(config, 0));
    if let Some(monitor) = &monitor {
        testbed = testbed.with_monitor(monitor.clone());
    }
    let trace_format = args
        .trace_format
        .or_else(|| args.gantt.then_some(TraceFormat::Gantt));
    let run_it = move || {
        if trace_format.is_some() || args.check_invariants {
            let (report, trace) = testbed.run_traced(&events);
            (report, Some(trace))
        } else {
            (testbed.run(&events), None)
        }
    };
    // A monitored run survives a sim panic long enough to dump the
    // flight recorder: the hypervisor hands its monitor state back to the
    // shared handle as the panic unwinds, so whatever was aggregated
    // before the panic is still there.
    let (report, trace) = if monitor.is_some() {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run_it)) {
            Ok(result) => result,
            Err(payload) => {
                let reason = panic_message(payload.as_ref());
                if let Some(path) = args.monitor.postmortem_out.as_deref() {
                    let mut doc = monitor.as_ref().expect("monitored run").to_doc();
                    doc.trigger = Some(format!("panic: {reason}"));
                    write_output(path, &nimblock_ser::to_string_pretty(&doc), out)?;
                }
                return Err(CliError(format!("simulation panicked: {reason}")));
            }
        }
    } else {
        run_it()
    };

    let responses: Vec<f64> = report
        .records()
        .iter()
        .map(|r| r.response_time().as_secs_f64())
        .collect();
    let summary = Summary::of(&responses);
    writeln!(
        out,
        "{}: {} applications on {} slots\n  response time (s): mean {} | median {} | p95 {} | p99 {} | max {}",
        report.scheduler(),
        report.records().len(),
        args.slots,
        fmt3(summary.mean),
        fmt3(summary.median),
        fmt3(summary.p95),
        fmt3(summary.p99),
        fmt3(summary.max),
    )
    .map_err(|e| CliError(e.to_string()))?;
    let preemptions: u32 = report.records().iter().map(|r| r.preemptions).sum();
    writeln!(out, "  makespan: {} | preemptions: {preemptions}", report.finished_at())
        .map_err(|e| CliError(e.to_string()))?;
    let counters = report.counters();
    let hit_rate = counters
        .cache_hit_rate()
        .map_or_else(|| "n/a".to_owned(), |r| fmt3(r));
    writeln!(
        out,
        "  counters: reconfigurations {} | alloc stalls {} | bitstream cache hit rate {hit_rate}",
        counters.reconfigurations, counters.alloc_stalls,
    )
    .map_err(|e| CliError(e.to_string()))?;

    if args.check_invariants {
        let trace = trace.as_ref().expect("run was traced for invariant checking");
        let mut invariant_config = nimblock_analyze::InvariantConfig::default();
        invariant_config.reconfig_latency = exact_reconfig_latency;
        let verdict = nimblock_analyze::verify_trace(trace, &invariant_config);
        if verdict.is_clean() {
            writeln!(
                out,
                "  invariants: ok ({} events, {} applications)",
                verdict.events_checked, verdict.apps_seen
            )
            .map_err(|e| CliError(e.to_string()))?;
        } else {
            writeln!(out, "{verdict}").map_err(|e| CliError(e.to_string()))?;
            // The flight-recorder payoff: the bundle carries the recent
            // windows, the event ring, and the failing app's span tree.
            if let Some(path) = args.monitor.postmortem_out.as_deref() {
                let first = verdict.violations.first();
                let trigger = first
                    .map(|v| format!("invariant: {} — {}", v.rule, v.message))
                    .unwrap_or_else(|| "invariant violation".to_owned());
                // Not every violation names an application (a bare slot
                // overlap doesn't); implicate the first one that does.
                let doc = nimblock_core::post_mortem(
                    trace,
                    monitor_config.clone().unwrap_or_default(),
                    &trigger,
                    verdict.violations.iter().find_map(|v| v.app),
                );
                write_output(path, &nimblock_ser::to_string_pretty(&doc), out)?;
                writeln!(out, "  post-mortem bundle written to {path}")
                    .map_err(|e| CliError(e.to_string()))?;
            }
            return Err(CliError(format!(
                "schedule violates {} invariant(s)",
                verdict.violations.len()
            )));
        }
    }

    if let Some(monitor) = &monitor {
        let doc = monitor.to_doc();
        if !doc.rules.is_empty() {
            writeln!(
                out,
                "  slo: {} rule(s) evaluated over {} window(s), {} alert(s) fired",
                doc.rules.len(),
                doc.windows.len(),
                doc.alerts.len(),
            )
            .map_err(|e| CliError(e.to_string()))?;
        }
        if let Some(path) = &args.monitor.timeseries_out {
            write_output(path, &nimblock_ser::to_string_pretty(&doc), out)?;
        }
    }

    if let (Some(format), Some(trace)) = (trace_format, &trace) {
        let rendered = match format {
            TraceFormat::Json => nimblock_ser::to_string_pretty(trace),
            TraceFormat::Chrome => trace.to_chrome(),
            TraceFormat::Gantt => trace.gantt(100),
        };
        match args.trace_out.as_deref() {
            None | Some("-") => {
                writeln!(out, "\n{rendered}").map_err(|e| CliError(e.to_string()))?
            }
            Some(path) => write_output(path, &rendered, out)?,
        }
    }
    if let Some(path) = &args.json {
        let json = nimblock_ser::to_string_pretty(&report);
        write_output(path, &json, out)?;
    }
    if let (Some(path), Some(registry)) = (&args.metrics_out, &registry) {
        write_output(path, &registry.render_prometheus(), out)?;
    }
    Ok(())
}

fn generate_command(args: &GenerateArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let events = make_sequence(&args.stimulus)?;
    let json = nimblock_ser::to_string_pretty(&events);
    write_output(&args.output, &json, out)?;
    if args.output != "-" {
        writeln!(out, "wrote {} events to {}", events.len(), args.output)
            .map_err(|e| CliError(e.to_string()))?;
    }
    Ok(())
}

fn compare_command(args: &CompareArgs, out: &mut dyn Write) -> Result<(), CliError> {
    let events = make_sequence(&args.stimulus)?;
    let config = DeviceConfig::zcu106().with_slot_count(args.slots);
    check_placeable(&events, &config)?;
    let baseline = Testbed::new(SchedulerKind::NoSharing.build())
        .with_device_config(config.clone())
        .run(&events);
    let mut table = TextTable::new(vec!["scheduler", "mean resp (s)", "reduction", "p95 (s)"]);
    let roster = [
        SchedulerKind::NoSharing,
        SchedulerKind::Fcfs,
        SchedulerKind::RoundRobin,
        SchedulerKind::Prema,
        SchedulerKind::Sjf,
        SchedulerKind::Edf,
        SchedulerKind::Nimblock,
    ];
    for kind in roster {
        let report = if kind == SchedulerKind::NoSharing {
            baseline.clone()
        } else {
            Testbed::new(kind.build())
                .with_device_config(config.clone())
                .run(&events)
        };
        let responses: Vec<f64> = report
            .records()
            .iter()
            .map(|r| r.response_time().as_secs_f64())
            .collect();
        let summary = Summary::of(&responses);
        table.row(vec![
            report.scheduler().to_owned(),
            fmt3(summary.mean),
            format!("{}x", fmt3(harmonic_speedup(&baseline, &report))),
            fmt3(summary.p95),
        ]);
    }
    write!(out, "{table}").map_err(|e| CliError(e.to_string()))
}

/// Renders a [`TextTable`] as a GitHub-flavoured markdown pipe table.
fn markdown_table(table: &TextTable) -> String {
    let mut text = String::new();
    text.push_str(&format!("| {} |\n", table.headers().join(" | ")));
    text.push_str(&format!("|{}\n", "---|".repeat(table.headers().len())));
    for row in table.rows() {
        text.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    text
}

fn front_door_command(
    args: &FaasArgs,
    door: &crate::args::FrontDoorArgs,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry, TenantPolicy};

    let mut config = FrontDoorConfig::new(args.seed);
    config.invocations =
        u64::try_from(args.invocations).expect("invocation count fits in u64");
    config.process = nimblock_workload::ArrivalProcess::parse(&door.arrivals)
        .map_err(|e| CliError(format!("--arrivals: {e}")))?;
    config.tenants = door.tenants;
    config.tenant_policy = TenantPolicy {
        rate_per_sec: door.rate_limit,
        burst: door.burst,
        quota: door.quota,
    };
    config.boards = door.boards;
    config.slots_per_board = door.slots;
    config.threads = door.threads;
    config.shed_horizon = SimDuration::from_millis(door.shed_horizon_ms);
    config.max_items = door.max_items;

    let registry = door.metrics_out.as_ref().map(|_| nimblock_obs::Registry::new());
    let mut front = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
    if let Some(registry) = &registry {
        front = front.with_metrics(registry.clone());
    }

    if let Some(factors) = &door.curve {
        let curve = front.run_curve(factors);
        let rendered = match door.format {
            ExplainFormat::Json => nimblock_ser::to_string_pretty(&curve),
            ExplainFormat::Markdown => {
                format!("# SLO attainment curve\n\n{}", markdown_table(&curve.to_table()))
            }
            ExplainFormat::Text => curve.to_table().to_string(),
        };
        match door.curve_out.as_deref() {
            None | Some("-") => {
                writeln!(out, "{rendered}").map_err(|e| CliError(e.to_string()))?
            }
            Some(path) => write_output(path, &rendered, out)?,
        }
        let monotone = curve.attainment_monotone(0.02);
        writeln!(
            out,
            "curve: {} point(s), offered attainment {}",
            curve.points.len(),
            if monotone { "monotone non-increasing" } else { "NOT monotone" },
        )
        .map_err(|e| CliError(e.to_string()))?;
        for point in &curve.points {
            if !point.counters.conserves() {
                return Err(CliError(format!(
                    "conservation violated at load {}",
                    point.load_factor
                )));
            }
        }
        return Ok(());
    }

    let report = match door.record_out.as_deref() {
        Some(path) => {
            let (report, trace) = front.run_recorded(door.load);
            fs::write(path, &trace)
                .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            writeln!(
                out,
                "recorded {} invocation(s) to {path} ({} bytes)",
                report.counters.offered,
                trace.len(),
            )
            .map_err(|e| CliError(e.to_string()))?;
            report
        }
        None => front.run_at_load(door.load),
    };
    let counters = &report.counters;
    writeln!(
        out,
        "front door: {} offered at {} (load {}), {} tenant(s), {} board(s) x {} slot(s)",
        counters.offered,
        door.arrivals,
        door.load,
        door.tenants,
        door.boards,
        door.slots,
    )
    .map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "  admitted {} | shed {} (backlog {}, deadline {}) | rejected {} (rate {}, quota {})",
        counters.admitted,
        counters.shed(),
        counters.shed_backlog,
        counters.shed_deadline,
        counters.rejected(),
        counters.rejected_rate,
        counters.rejected_quota,
    )
    .map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "  conservation: {} (offered = admitted + shed + rejected)",
        if report.conserves() { "exact" } else { "VIOLATED" },
    )
    .map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "  goodput {}/s | attainment {} | offered attainment {} | peak buffered {} | virtual {}s",
        fmt3(report.goodput_per_sec),
        fmt3(report.attainment),
        fmt3(report.offered_attainment),
        report.peak_buffered,
        fmt3(report.virtual_secs),
    )
    .map_err(|e| CliError(e.to_string()))?;
    writeln!(
        out,
        "  shed-alert: {}",
        if report.shed_alert() { "fired" } else { "quiet" },
    )
    .map_err(|e| CliError(e.to_string()))?;

    let mut classes = TextTable::new(vec![
        "class", "admitted", "within-slo", "shed", "p50 (ms)", "p95 (ms)", "p99 (ms)",
        "attainment",
    ]);
    for class in &report.classes {
        classes.row(vec![
            class.class_name.clone(),
            class.admitted.to_string(),
            class.within_slo.to_string(),
            class.shed.to_string(),
            (class.p50_response_micros / 1_000).to_string(),
            (class.p95_response_micros / 1_000).to_string(),
            (class.p99_response_micros / 1_000).to_string(),
            fmt3(class.attainment()),
        ]);
    }
    let mut tenants = TextTable::new(vec![
        "tenant", "offered", "admitted", "rej-rate", "rej-quota", "peak in-flight",
    ]);
    for tenant in &report.tenants {
        tenants.row(vec![
            tenant.tenant.to_string(),
            tenant.offered.to_string(),
            tenant.admitted.to_string(),
            tenant.rejected_rate.to_string(),
            tenant.rejected_quota.to_string(),
            tenant.peak_in_flight.to_string(),
        ]);
    }
    match door.format {
        ExplainFormat::Markdown => {
            write!(
                out,
                "\n## Classes\n\n{}\n## Tenants\n\n{}",
                markdown_table(&classes),
                markdown_table(&tenants),
            )
            .map_err(|e| CliError(e.to_string()))?;
        }
        _ => {
            write!(out, "{classes}{tenants}").map_err(|e| CliError(e.to_string()))?;
        }
    }
    for explanation in &report.shed_explanations {
        if explanation.sheds == 0 {
            continue;
        }
        let c = &explanation.components;
        writeln!(
            out,
            "  shed[{}]: {} shed(s); components queue_wait {} + cap {} + reconfig {} + \
             compute {} + preempt {} - overlap {} us vs budget {} us",
            explanation.class_name,
            explanation.sheds,
            c.queue_wait,
            c.cap_serialization,
            c.reconfig,
            c.compute,
            c.preemption_loss,
            c.pipeline_overlap_gain,
            explanation.budget_micros,
        )
        .map_err(|e| CliError(e.to_string()))?;
    }
    if let Some(path) = &door.json {
        write_output(path, &nimblock_ser::to_string_pretty(&report), out)?;
    }
    if let (Some(path), Some(registry)) = (&door.metrics_out, &registry) {
        write_output(path, &registry.render_prometheus(), out)?;
    }
    if !report.conserves() {
        return Err(CliError("serving counters do not conserve invocations".to_owned()));
    }
    Ok(())
}

fn faas_command(args: &FaasArgs, out: &mut dyn Write) -> Result<(), CliError> {
    use nimblock_faas::{FaasGateway, FunctionRegistry, InvocationWorkload};
    if let Some(door) = &args.frontdoor {
        return front_door_command(args, door, out);
    }
    let gateway = FaasGateway::new(FunctionRegistry::benchmark_suite());
    let workload = InvocationWorkload::new(args.seed)
        .invocations(args.invocations)
        .mean_gap_millis(args.mean_gap_ms);
    let summary = gateway.run(&workload, args.scheduler.build());
    writeln!(
        out,
        "{}: {} invocations, overall SLO attainment {}",
        summary.scheduler(),
        summary.total_invocations(),
        fmt3(summary.overall_attainment())
    )
    .map_err(|e| CliError(e.to_string()))?;
    let mut table = TextTable::new(vec![
        "function", "class", "invocations", "mean (s)", "p95 (s)", "SLO attainment",
    ]);
    for stats in summary.per_function() {
        table.row(vec![
            stats.function.clone(),
            stats.slo.to_string(),
            stats.invocations.to_string(),
            fmt3(stats.mean_latency_secs),
            fmt3(stats.p95_latency_secs),
            fmt3(stats.slo_attainment),
        ]);
    }
    write!(out, "{table}").map_err(|e| CliError(e.to_string()))
}

fn cluster_command(args: &ClusterArgs, out: &mut dyn Write) -> Result<(), CliError> {
    use nimblock_cluster::ClusterTestbed;
    let events = make_sequence(&args.stimulus)?;
    check_placeable(&events, &DeviceConfig::zcu106())?;
    let scheduler = args.scheduler;
    let factory = move || scheduler.build();
    if args.sweep_boards.is_some() && args.monitor.enabled() {
        return Err(CliError(
            "monitoring flags are not supported with --sweep-boards \
             (one document per run; sweep runs many)"
                .to_owned(),
        ));
    }
    if let Some(sweep) = &args.sweep_boards {
        let mut table = TextTable::new(vec![
            "boards", "mean resp (s)", "p95 (s)", "makespan", "loads",
        ]);
        for &boards in sweep {
            let report = ClusterTestbed::new(boards, args.dispatch, factory)
                .with_threads(args.threads)
                .run(&events);
            let responses: Vec<f64> = report
                .merged()
                .records()
                .iter()
                .map(|r| r.response_time().as_secs_f64())
                .collect();
            let summary = Summary::of(&responses);
            table.row(vec![
                boards.to_string(),
                fmt3(summary.mean),
                fmt3(summary.p95),
                report.merged().finished_at().to_string(),
                format!("{:?}", report.board_loads()),
            ]);
        }
        writeln!(
            out,
            "cluster sweep ({scheduler:?}, {dispatch}, {events} events, threads {threads})",
            scheduler = args.scheduler,
            dispatch = args.dispatch.name(),
            events = events.len(),
            threads = args.threads,
        )
        .map_err(|e| CliError(e.to_string()))?;
        return write!(out, "{table}").map_err(|e| CliError(e.to_string()));
    }
    let mut cluster = ClusterTestbed::new(args.boards, args.dispatch, factory)
        .with_threads(args.threads);
    if args.monitor.enabled() {
        cluster = cluster.with_monitor(args.monitor.config()?);
    }
    let report = cluster.run(&events);
    writeln!(
        out,
        "{}: mean response {}s over {} events; per-board loads {:?}",
        report.merged().scheduler(),
        fmt3(report.merged().mean_response_secs()),
        report.merged().records().len(),
        report.board_loads(),
    )
    .map_err(|e| CliError(e.to_string()))?;
    if let Some(doc) = report.monitor() {
        if !doc.rules.is_empty() {
            writeln!(
                out,
                "  slo: {} rule(s) evaluated over {} merged window(s), {} alert(s) fired",
                doc.rules.len(),
                doc.windows.len(),
                doc.alerts.len(),
            )
            .map_err(|e| CliError(e.to_string()))?;
        }
        if let Some(path) = &args.monitor.timeseries_out {
            write_output(path, &nimblock_ser::to_string_pretty(doc), out)?;
        }
    }
    Ok(())
}

fn analyze_command(target: &AnalyzeTarget, out: &mut dyn Write) -> Result<(), CliError> {
    match target {
        AnalyzeTarget::Lint { root, format } => {
            let report = nimblock_analyze::lint_tree(std::path::Path::new(root))
                .map_err(|e| CliError(format!("cannot lint {root}: {e}")))?;
            if *format == ExplainFormat::Json {
                writeln!(out, "{}", nimblock_ser::to_string_pretty(&report))
                    .map_err(|e| CliError(e.to_string()))?;
            } else {
                writeln!(out, "{report}").map_err(|e| CliError(e.to_string()))?;
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(CliError(format!("lint reported {} finding(s)", report.diags.len())))
            }
        }
        AnalyzeTarget::Deep { root, format, graph_out } => {
            let analysis = nimblock_analyze::deep_tree(std::path::Path::new(root))
                .map_err(|e| CliError(format!("cannot analyze {root}: {e}")))?;
            if let Some(path) = graph_out {
                fs::write(path, &analysis.dot)
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
            }
            write!(out, "{}", analysis.report.render(*format))
                .map_err(|e| CliError(e.to_string()))?;
            if analysis.report.is_clean() {
                Ok(())
            } else {
                Err(CliError(format!(
                    "deep analysis reported {} finding(s), {} lint finding(s), {} stale suppression(s)",
                    analysis.report.findings.len(),
                    analysis.report.lint.len(),
                    analysis.report.unused_suppressions.len()
                )))
            }
        }
        AnalyzeTarget::Trace { path, format, mechanism_only, reconfig_latency } => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let trace: nimblock_core::Trace = nimblock_ser::from_str(&text)
                .map_err(|e| CliError(format!("{path} is not a serialized trace: {e}")))?;
            let config = nimblock_analyze::InvariantConfig {
                reconfig_latency: *reconfig_latency,
                nimblock_policy: !mechanism_only,
                ..nimblock_analyze::InvariantConfig::default()
            };
            let report = nimblock_analyze::verify_trace(&trace, &config);
            if *format == ExplainFormat::Json {
                writeln!(out, "{}", nimblock_ser::to_string_pretty(&report))
                    .map_err(|e| CliError(e.to_string()))?;
            } else if report.is_clean() {
                writeln!(
                    out,
                    "ok: {} event(s), {} application(s), all invariants hold",
                    report.events_checked, report.apps_seen
                )
                .map_err(|e| CliError(e.to_string()))?;
            } else {
                writeln!(out, "{report}").map_err(|e| CliError(e.to_string()))?;
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(CliError(format!(
                    "trace violates {} invariant(s)",
                    report.violations.len()
                )))
            }
        }
        AnalyzeTarget::Monitor { path, format } => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let doc: nimblock_obs::MonitorDoc = nimblock_ser::from_str(&text)
                .map_err(|e| CliError(format!("{path} is not a monitoring document: {e}")))?;
            write!(out, "{}", nimblock_analyze::render_monitor(&doc, *format))
                .map_err(|e| CliError(e.to_string()))
            // Fired alerts describe the run, not this command: rendering
            // an alert-bearing document is still a clean exit.
        }
        AnalyzeTarget::Plan { path, sweeps, slo, replays, format, out: plan_out } => {
            let trace = fs::read(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let options = nimblock_plan::PlanOptions {
                sweeps: sweeps.clone(),
                slo_target: *slo,
                replays: *replays,
            };
            let report = nimblock_plan::plan(&trace, &options).map_err(CliError)?;
            let plan_format = match format {
                ExplainFormat::Text => nimblock_plan::PlanFormat::Text,
                ExplainFormat::Markdown => nimblock_plan::PlanFormat::Markdown,
                ExplainFormat::Json => nimblock_plan::PlanFormat::Json,
            };
            let rendered = nimblock_plan::render_plan(&report, plan_format);
            match plan_out.as_deref() {
                None | Some("-") => {
                    write!(out, "{rendered}").map_err(|e| CliError(e.to_string()))?
                }
                Some(path) => write_output(path, &rendered, out)?,
            }
            // A failed byte-identity check means the planner's replay did
            // not reproduce the recorded day — none of its counterfactual
            // predictions can be trusted, so the command fails.
            if report.replay_check == "MISMATCH" {
                return Err(CliError(
                    "exact replay of the recorded configuration did not reproduce \
                     the embedded report byte-for-byte"
                        .to_owned(),
                ));
            }
            Ok(())
        }
        AnalyzeTarget::Explain { path, format, top } => {
            let text = fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let trace: nimblock_core::Trace = nimblock_ser::from_str(&text)
                .map_err(|e| CliError(format!("{path} is not a serialized trace: {e}")))?;
            let explain = nimblock_analyze::explain_trace(&trace);
            write!(out, "{}", explain.render(*format, *top))
                .map_err(|e| CliError(e.to_string()))?;
            if explain.is_exact() {
                Ok(())
            } else {
                Err(CliError(
                    "attribution components do not sum to the measured response times"
                        .to_owned(),
                ))
            }
        }
        AnalyzeTarget::Rules => {
            write!(out, "{}", rule_catalog()).map_err(|e| CliError(e.to_string()))
        }
    }
}

/// The lint rules, deep passes and trace invariants, one per line.
fn rule_catalog() -> String {
    let mut text = String::from("lint rules (suppress with `// nimblock: allow(<rule>)`):\n\n");
    for rule in nimblock_analyze::all_rules() {
        text += &format!("  {:<22} {}\n", rule.id(), rule.description());
    }
    text += "\ndeep passes (suppress per line or via analyze-suppressions.txt):\n\n";
    for pass in nimblock_analyze::all_passes() {
        text += &format!("  {:<22} {}\n", pass.id(), pass.description());
    }
    text += "\ntrace invariants (paper section in parentheses):\n\n";
    for rule in nimblock_analyze::InvariantRule::ALL {
        text += &format!("  {:<22} ({})\n", rule.id(), rule.paper_section());
    }
    text
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates I/O, parse, and serialization failures as [`CliError`].
pub fn execute(command: &Command, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{}", crate::USAGE).map_err(|e| CliError(e.to_string()))
        }
        Command::Generate(args) => generate_command(args, out),
        Command::Run(args) => run_command(args, out),
        Command::Compare(args) => compare_command(args, out),
        Command::Faas(args) => faas_command(args, out),
        Command::Cluster(args) => cluster_command(args, out),
        Command::Analyze(target) => analyze_command(target, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn run_line(line: &str) -> String {
        let command = parse(&argv(line)).unwrap();
        let mut out = Vec::new();
        execute(&command, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn run_prints_a_summary() {
        let output = run_line("run --scheduler fcfs --events 3 --seed 1");
        assert!(output.contains("FCFS: 3 applications"), "{output}");
        assert!(output.contains("mean"), "{output}");
    }

    #[test]
    fn generate_then_replay_roundtrips() {
        let dir = std::env::temp_dir().join("nimblock-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stimulus.json");
        let path = path.to_str().unwrap();
        run_line(&format!("generate --batch 2 --delay-ms 100 --events 4 --output {path}"));
        let loaded = load_sequence(path).unwrap();
        assert_eq!(loaded.len(), 4);
        // Replaying the file gives the same report as generating in-process.
        let from_file = run_line(&format!("run --scheduler rr --input {path}"));
        let generated = run_line("run --scheduler rr --batch 2 --delay-ms 100 --events 4");
        assert_eq!(from_file, generated);
    }

    #[test]
    fn json_report_is_valid() {
        let output = run_line("run --scheduler nimblock --events 2 --seed 5 --json -");
        let json_start = output.find('{').expect("json in output");
        let value = nimblock_ser::parse(output[json_start..].trim()).unwrap();
        assert!(value.get("records").is_some());
    }

    #[test]
    fn gantt_renders_slot_rows() {
        let output = run_line("run --scheduler nimblock --events 2 --seed 5 --slots 4 --gantt");
        assert!(output.contains("slot#0"), "{output}");
        assert!(output.contains("slot#3"), "{output}");
    }

    #[test]
    fn run_prints_counters_without_any_flags() {
        let output = run_line("run --scheduler nimblock --events 3 --seed 1");
        assert!(output.contains("counters: reconfigurations"), "{output}");
        assert!(output.contains("bitstream cache hit rate"), "{output}");
    }

    #[test]
    fn metrics_out_renders_valid_prometheus() {
        let output = run_line("run --scheduler nimblock --events 3 --seed 1 --metrics-out -");
        let start = output.find("# HELP").expect("prometheus text in output");
        let count = nimblock_obs::validate_prometheus(&output[start..]).unwrap();
        assert!(count > 5, "expected several series, got {count}");
        assert!(output.contains("hv_arrivals_total 3"), "{output}");
    }

    #[test]
    fn chrome_trace_export_is_valid() {
        let output =
            run_line("run --scheduler nimblock --events 2 --seed 5 --trace-format chrome");
        let start = output.find('{').expect("chrome json in output");
        nimblock_obs::validate_chrome_trace(output[start..].trim()).unwrap();
    }

    #[test]
    fn trace_format_json_roundtrips() {
        let output = run_line("run --scheduler fcfs --events 2 --seed 5 --trace-format json");
        let start = output.find('{').expect("trace json in output");
        let trace: nimblock_core::Trace =
            nimblock_ser::from_str(output[start..].trim()).unwrap();
        trace.validate().unwrap();
        assert!(!trace.events().is_empty());
    }

    #[test]
    fn compare_lists_all_schedulers() {
        let output = run_line("compare --events 3 --seed 2 --batch 2 --delay-ms 200");
        for name in ["NoSharing", "FCFS", "RR", "PREMA", "SJF", "EDF", "Nimblock"] {
            assert!(output.contains(name), "missing {name} in\n{output}");
        }
    }

    #[test]
    fn faas_command_reports_attainment() {
        let output = run_line("faas --invocations 10 --seed 4 --scheduler fcfs");
        assert!(output.contains("SLO attainment"), "{output}");
        assert!(output.contains("FCFS: 10 invocations"), "{output}");
    }

    #[test]
    fn faas_front_door_reports_conservation_and_sheds() {
        // Deep overload with a tight horizon: sheds and rate rejections both
        // fire, and the conservation line renders as exact.
        let output = run_line(
            "faas --arrivals bursty:2000 --invocations 2000 --seed 11 \
             --shed-horizon-ms 200 --rate-limit 300 --burst 32",
        );
        assert!(output.contains("conservation: exact"), "{output}");
        assert!(output.contains("shed-alert: fired"), "{output}");
        assert!(output.contains("front door: 2000 offered"), "{output}");
        assert!(output.contains("class"), "{output}");
        assert!(output.contains("tenant"), "{output}");
        assert!(output.contains("shed[latency]"), "{output}");
    }

    #[test]
    fn faas_front_door_output_is_thread_count_invariant() {
        let base = "faas --arrivals steady:0.05 --invocations 400 --seed 17 \
                    --shed-horizon-ms 60000";
        let sequential = run_line(&format!("{base} --cluster-threads 1"));
        for threads in [2, 8, 0] {
            let parallel = run_line(&format!("{base} --cluster-threads {threads}"));
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn faas_front_door_renders_curves_in_every_format() {
        let base = "faas --arrivals steady:0.05 --invocations 300 --seed 31 \
                    --shed-horizon-ms 60000 --curve 0.25,4";
        let text = run_line(base);
        assert!(text.contains("offered-slo"), "{text}");
        assert!(text.contains("monotone non-increasing"), "{text}");
        let md = run_line(&format!("{base} --format md"));
        assert!(md.contains("# SLO attainment curve"), "{md}");
        assert!(md.contains("| load |"), "{md}");
        let json = run_line(&format!("{base} --format json"));
        let start = json.find('{').expect("curve json in output");
        let end = json.rfind('}').expect("curve json in output");
        let curve: nimblock_metrics::SloCurve =
            nimblock_ser::from_str(&json[start..=end]).unwrap();
        assert_eq!(curve.points.len(), 2);
    }

    #[test]
    fn faas_front_door_writes_json_and_metrics() {
        let dir = std::env::temp_dir().join("nimblock-cli-frontdoor-test");
        fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let report_path = report_path.to_str().unwrap();
        let output = run_line(&format!(
            "faas --arrivals bursty:2000 --invocations 1000 --seed 7 \
             --shed-horizon-ms 200 --json {report_path} --metrics-out -"
        ));
        let report: nimblock_faas::FrontDoorReport =
            nimblock_ser::from_str(&fs::read_to_string(report_path).unwrap()).unwrap();
        assert!(report.conserves());
        assert_eq!(report.counters.offered, 1000);
        let start = output.find("# HELP").expect("prometheus text in output");
        let count = nimblock_obs::validate_prometheus(&output[start..]).unwrap();
        assert!(count > 5, "expected several series, got {count}");
        assert!(output.contains("faas_offered_total 1000"), "{output}");
    }

    #[test]
    fn cluster_command_reports_loads() {
        let output = run_line("cluster --boards 3 --events 6 --seed 8 --batch 2 --delay-ms 100");
        assert!(output.contains("cluster(3x"), "{output}");
        assert!(output.contains("per-board loads"), "{output}");
    }

    #[test]
    fn cluster_output_is_thread_count_invariant() {
        // The CLI-level determinism oracle: any --cluster-threads value
        // prints the same bytes.
        let base = "cluster --boards 4 --events 8 --seed 13 --dispatch least-outstanding";
        let sequential = run_line(&format!("{base} --cluster-threads 1"));
        for threads in [2, 8, 0] {
            let parallel = run_line(&format!("{base} --cluster-threads {threads}"));
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn cluster_sweep_tabulates_board_counts() {
        let output = run_line(
            "cluster --sweep-boards 1,2,4 --events 6 --seed 8 --batch 2 --delay-ms 100 \
             --cluster-threads 2 --dispatch rr",
        );
        assert!(output.contains("cluster sweep"), "{output}");
        assert!(output.contains("boards"), "{output}");
        for count in ["1", "2", "4"] {
            assert!(output.contains(count), "missing boards={count}:\n{output}");
        }
    }

    #[test]
    fn help_prints_usage() {
        let output = run_line("help");
        assert!(output.contains("USAGE"));
    }

    #[test]
    fn check_invariants_passes_for_every_paper_scheduler() {
        // The acceptance bar: all five evaluated policies produce schedules
        // that hold every invariant on a fig5-style stress workload.
        for scheduler in ["nosharing", "fcfs", "rr", "prema", "nimblock"] {
            let output = run_line(&format!(
                "run --scheduler {scheduler} --scenario stress --events 8 --seed 23 \
                 --check-invariants"
            ));
            assert!(
                output.contains("invariants: ok"),
                "{scheduler} failed the invariant check:\n{output}"
            );
        }
    }

    #[test]
    fn check_invariants_composes_with_telemetry_flags() {
        let output = run_line(
            "run --scheduler nimblock --batch 2 --delay-ms 100 --events 3 --seed 7 \
             --check-invariants --trace-format gantt",
        );
        assert!(output.contains("invariants: ok"), "{output}");
        assert!(output.contains("slot#0"), "{output}");
    }

    #[test]
    fn analyze_trace_verifies_an_exported_trace() {
        let dir = std::env::temp_dir().join("nimblock-cli-analyze-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path = path.to_str().unwrap();
        run_line(&format!(
            "run --scheduler nimblock --events 4 --seed 11 \
             --trace-format json --trace-out {path}"
        ));
        let output = run_line(&format!("analyze trace {path}"));
        assert!(output.contains("all invariants hold"), "{output}");
        let json = run_line(&format!("analyze trace {path} --json"));
        let start = json.find('{').expect("json in output");
        let report: nimblock_analyze::InvariantReport =
            nimblock_ser::from_str(json[start..].trim()).unwrap();
        assert!(report.is_clean());
        assert!(report.events_checked > 0);
    }

    #[test]
    fn analyze_explain_attributes_an_exported_trace() {
        let dir = std::env::temp_dir().join("nimblock-cli-explain-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path = path.to_str().unwrap();
        run_line(&format!(
            "run --scheduler nimblock --scenario stress --events 6 --seed 3 \
             --trace-format json --trace-out {path}"
        ));
        let text = run_line(&format!("analyze explain {path} --top 2"));
        assert!(text.contains("exact decomposition: yes"), "{text}");
        assert!(text.contains("queue_wait"), "{text}");
        assert!(text.contains("critical path of"), "{text}");
        let md = run_line(&format!("analyze explain {path} --format md"));
        assert!(md.starts_with("# Response-time attribution"), "{md}");
        let json = run_line(&format!("analyze explain {path} --format json"));
        let value = nimblock_ser::parse(json.trim()).unwrap();
        assert_eq!(value.get("exact"), Some(&nimblock_ser::Json::Bool(true)));
        let summary: nimblock_metrics::AttributionSummary =
            nimblock_ser::FromJson::from_json(value.get("summary").unwrap()).unwrap();
        assert!(summary.is_exact());
        assert_eq!(summary.apps.len(), 6);
    }

    #[test]
    fn analyze_trace_rejects_garbage_and_missing_files() {
        let command = parse(&argv("analyze trace /nonexistent/t.json")).unwrap();
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot read"));

        let dir = std::env::temp_dir().join("nimblock-cli-analyze-garbage");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-trace.json");
        fs::write(&path, "{\"events\": 42}").unwrap();
        let command =
            parse(&argv(&format!("analyze trace {}", path.display()))).unwrap();
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("not a serialized trace"), "{err}");
    }

    #[test]
    fn analyze_rules_lists_every_catalog() {
        let output = run_line("analyze rules");
        for rule in nimblock_analyze::all_rules() {
            assert!(output.contains(rule.id()), "lint rule {} missing", rule.id());
        }
        for pass in nimblock_analyze::all_passes() {
            assert!(output.contains(pass.id()), "deep pass {} missing", pass.id());
        }
        assert_eq!(nimblock_analyze::InvariantRule::ALL.len(), 11);
        for rule in nimblock_analyze::InvariantRule::ALL {
            let line = format!("  {:<22} ({})", rule.id(), rule.paper_section());
            assert!(output.contains(&line), "invariant line {line:?} missing");
        }
    }

    #[test]
    fn analyze_lint_json_flag_is_format_json() {
        let root = env!("CARGO_MANIFEST_DIR");
        let json = run_line(&format!("analyze lint --root {root} --json"));
        assert_eq!(run_line(&format!("analyze lint --root {root} --format json")), json);
        let report: nimblock_analyze::LintReport = nimblock_ser::from_str(json.trim()).unwrap();
        assert!(report.is_clean());
        // There is no markdown lint report; md renders as text.
        let text = run_line(&format!("analyze lint --root {root}"));
        assert_eq!(run_line(&format!("analyze lint --root {root} --format md")), text);
    }

    #[test]
    fn faas_record_then_analyze_plan_forecasts_capacity() {
        let dir = std::env::temp_dir().join("nimblock-cli-plan-test");
        fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("day.nbt");
        let trace = trace.to_str().unwrap();
        let output = run_line(&format!(
            "faas --arrivals bursty:2000 --invocations 600 --seed 11 --shed-horizon-ms 200 \
             --rate-limit 300 --burst 32 --record-out {trace}"
        ));
        assert!(output.contains("recorded 600 invocation(s)"), "{output}");
        assert!(output.contains("conservation: exact"), "{output}");

        let text = run_line(&format!("analyze plan {trace} --sweep boards=2..5 --replays 2"));
        assert!(text.contains("capacity plan"), "{text}");
        assert!(text.contains("baseline replay byte-identical"), "{text}");
        assert!(text.contains("error bound"), "{text}");
        let md = run_line(&format!(
            "analyze plan {trace} --sweep boards=4..5 --replays 1 --format md"
        ));
        assert!(md.starts_with("# Capacity plan"), "{md}");
        let json = run_line(&format!(
            "analyze plan {trace} --sweep boards=4..5 --replays 1 --format json"
        ));
        let report: nimblock_plan::PlanReport = nimblock_ser::from_str(json.trim()).unwrap();
        assert_eq!(report.replay_check, "byte-identical");
        assert_eq!(report.records, 600);
        assert!(report.error_bound_pp >= 0.0);

        // --out writes the render to a file instead of stdout.
        let out_path = dir.join("plan.md");
        let out_path = out_path.to_str().unwrap();
        run_line(&format!(
            "analyze plan {trace} --sweep boards=4..5 --replays 1 --format md --out {out_path}"
        ));
        assert_eq!(fs::read_to_string(out_path).unwrap(), md);
        // --out - is stdout.
        let stdout = run_line(&format!(
            "analyze plan {trace} --sweep boards=4..5 --replays 1 --format md --out -"
        ));
        assert_eq!(stdout, md);
    }

    #[test]
    fn zero_batch_input_is_a_clean_error() {
        let dir = std::env::temp_dir().join("nimblock-cli-zero-batch-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stimulus.json");
        let path = path.to_str().unwrap();
        run_line(&format!("generate --batch 2 --delay-ms 100 --events 2 --output {path}"));
        let text = fs::read_to_string(path).unwrap();
        let edited = text.replacen("\"batch_size\": 2", "\"batch_size\": 0", 1);
        assert_ne!(edited, text, "the generated file carries a batch size of 2");
        fs::write(path, edited).unwrap();
        let command = parse(&argv(&format!("run --scheduler nimblock --input {path}"))).unwrap();
        let err = execute(&command, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("batch_size"), "{err}");
    }

    #[test]
    fn missing_input_file_is_a_clean_error() {
        let command = parse(&argv("run --input /nonexistent/st.json")).unwrap();
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn monitored_run_writes_a_timeseries_and_fires_a_tight_slo() {
        let dir = std::env::temp_dir().join("nimblock-cli-monitor-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.json");
        let path = path.to_str().unwrap();
        // util>=100% cannot hold in every window (reconfiguration stalls
        // alone guarantee sub-full windows), so the rule reliably fires.
        let output = run_line(&format!(
            "run --scheduler nimblock --scenario stress --events 6 --seed 3 \
             --window-ms 1000 --slo util>=100% --timeseries-out {path}"
        ));
        assert!(output.contains("slo: 1 rule(s) evaluated"), "{output}");
        assert!(output.contains("alert(s) fired"), "{output}");

        let text = fs::read_to_string(path).unwrap();
        let doc: nimblock_obs::MonitorDoc = nimblock_ser::from_str(&text).unwrap();
        assert!(!doc.windows.is_empty());
        assert!(!doc.alerts.is_empty(), "tight rule should fire");
        assert_eq!(doc.rules, vec!["util>=100%".to_string()]);

        // The exported document round-trips through `analyze monitor` in
        // every format, and an alert-bearing document is still a clean exit.
        let rendered = run_line(&format!("analyze monitor {path}"));
        assert!(rendered.contains("continuous monitor:"), "{rendered}");
        assert!(rendered.contains("SLO rules:"), "{rendered}");
        let md = run_line(&format!("analyze monitor {path} --format md"));
        assert!(md.starts_with("# Continuous monitor"), "{md}");
        let json = run_line(&format!("analyze monitor {path} --format json"));
        let value = nimblock_ser::parse(json.trim()).unwrap();
        assert_eq!(value.get("clean"), Some(&nimblock_ser::Json::Bool(false)));
    }

    #[test]
    fn monitored_cluster_run_merges_boards_and_is_thread_invariant() {
        let dir = std::env::temp_dir().join("nimblock-cli-monitor-cluster");
        fs::create_dir_all(&dir).unwrap();
        let base = "cluster --boards 3 --events 6 --seed 8 --batch 2 --delay-ms 100 \
                    --window-ms 1000 --slo queue<=0";
        let mut docs = Vec::new();
        for threads in [1, 2, 8] {
            let path = dir.join(format!("series-{threads}.json"));
            let path = path.to_str().unwrap();
            let output = run_line(&format!(
                "{base} --cluster-threads {threads} --timeseries-out {path}"
            ));
            assert!(output.contains("merged window(s)"), "{output}");
            docs.push(fs::read_to_string(path).unwrap());
        }
        assert_eq!(docs[0], docs[1], "threads 1 vs 2");
        assert_eq!(docs[0], docs[2], "threads 1 vs 8");
        let doc: nimblock_obs::MonitorDoc = nimblock_ser::from_str(&docs[0]).unwrap();
        assert_eq!(doc.slots, 30, "3 boards x 10 slots");
    }

    #[test]
    fn monitor_flags_reject_sweeps_and_bad_rules() {
        let command = parse(&argv(
            "cluster --sweep-boards 1,2 --events 4 --slo util>=50%",
        ))
        .unwrap();
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(err.to_string().contains("--sweep-boards"), "{err}");

        let err = parse(&argv("run --events 2 --slo nonsense<=3")).unwrap_err();
        assert!(err.to_string().contains("rule"), "{err}");
    }
}
