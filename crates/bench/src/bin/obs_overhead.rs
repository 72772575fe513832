//! Telemetry overhead: proves the disabled-instrumentation hot path is
//! essentially free.
//!
//! Every hypervisor and policy carries *detached* instrument handles —
//! plain relaxed atomics never exported anywhere — so an uninstrumented
//! run pays one atomic add per event instead of any branch-and-allocate
//! machinery. This bench runs a fig5-style stimulus three ways:
//!
//! * `plain`: the ordinary testbed (detached handles, no monitor),
//! * `metered`: the same run with a live registry attached
//!   (`Testbed::with_metrics`, which also times scheduler decisions),
//! * `monitored`: the same run with a continuous monitor attached
//!   (`Testbed::with_monitor`: tumbling windows, flight recorder, SLO
//!   rules — the `--timeseries-out` machinery),
//! * `traced`: the same run with schedule tracing on, for scale.
//!
//! and prints the relative overhead of each over `plain`. The micro half
//! measures the raw per-op cost of the registry and monitor instruments.
//!
//! `--gate <pct>` is the CI tripwire for detached-sink overhead. A
//! testbed without `with_monitor` skips every monitor emission point
//! with one `Option` check, so the truly detached path *is* the plain
//! run — there is no slower variant to compare it against. What CAN
//! regress is the plumbing between an emission point and the sinks:
//! the gate attaches a *sink-less* monitor (zero window, ring, and
//! alert capacity, no rules — nothing is retained) and checks that
//! every branch and lazily-skipped string stays under `<pct>` percent
//! of the plain run (the hypervisor holds the monitor's state for the
//! whole run, so an emission takes no lock). A failure means monitoring
//! work leaked outside the attached-monitor guards (an eager `format!`,
//! a scan on the no-op path). Both configurations are measured as
//! interleaved best-of-N pairs so machine drift cancels instead of
//! biasing one side.
//!
//! ```sh
//! cargo run --release -p nimblock-bench --bin obs_overhead [-- --quick] [--gate 4]
//! ```

use nimblock_bench::micro::Runner;
use nimblock_bench::BASE_SEED;
use nimblock_core::{NimblockScheduler, Testbed};
use nimblock_obs::{parse_rules, Counter, Histogram, MonitorConfig, MonitorHandle, Registry};
use nimblock_workload::{generate, EventSequence, Scenario};
use std::time::Instant;

/// Samples per end-to-end configuration; the median is reported.
const RUN_SAMPLES: usize = 9;

fn sample_count() -> usize {
    if std::env::args().any(|a| a == "--quick") {
        3
    } else {
        RUN_SAMPLES
    }
}

fn samples_secs(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    // One discarded warmup run.
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

fn median_secs(f: impl FnMut()) -> f64 {
    let times = samples_secs(sample_count(), f);
    times[times.len() / 2]
}

/// The monitor configuration the end-to-end comparisons attach: default
/// 10 ms windows with one rule from each SLO family, so the window
/// aggregation, flight recorder, and burn-rate engine are all live.
fn monitor_config() -> MonitorConfig {
    MonitorConfig::default().rules(
        parse_rules(&[
            "util>=20%".into(),
            "queue<=8".into(),
            "resp:med:p95<=200ms".into(),
            "burn:low:p50<=500ms@3/5".into(),
        ])
        .expect("bench SLO rules parse"),
    )
}

fn run_plain(events: &EventSequence) {
    let report = Testbed::new(NimblockScheduler::default()).run(events);
    assert_eq!(report.records().len(), 20);
}

fn run_monitored(events: &EventSequence) {
    let monitor = MonitorHandle::new(monitor_config(), 0);
    let report = Testbed::new(NimblockScheduler::default())
        .with_monitor(monitor)
        .run(events);
    assert_eq!(report.records().len(), 20);
}

/// A monitor that retains nothing: the emission points pay their
/// branches, the sinks drop everything on the floor. The marginal
/// cost of this run over plain is the plumbing ceiling the gate bounds.
fn sinkless_config() -> MonitorConfig {
    let mut config = MonitorConfig::default();
    config.window_capacity = 0;
    config.ring_capacity = 0;
    config
}

fn run_sinkless(events: &EventSequence) {
    let monitor = MonitorHandle::new(sinkless_config(), 0);
    let report = Testbed::new(NimblockScheduler::default())
        .with_monitor(monitor)
        .run(events);
    assert_eq!(report.records().len(), 20);
}

/// Interleaved pairs for the gate: enough that the median per-pair
/// ratio is stable on a noisy shared host, still well under a minute.
const GATE_PAIRS: usize = 25;

/// `--gate <pct>`: interleaved plain/sink-less pairs, gating the
/// *median of the per-pair ratios* — the two runs of a pair are
/// adjacent in time, so host drift hits both sides of each ratio
/// equally, and the median discards the pairs a noisy neighbour ruins.
/// Exits nonzero past the allowance.
fn gate(events: &EventSequence, max_pct: f64) -> Result<(), String> {
    // Warm both paths once.
    run_plain(events);
    run_sinkless(events);
    let mut ratios = Vec::with_capacity(GATE_PAIRS);
    let mut best_plain = f64::INFINITY;
    let mut best_sinkless = f64::INFINITY;
    for _ in 0..GATE_PAIRS {
        let start = Instant::now();
        run_plain(events);
        let plain = start.elapsed().as_secs_f64();
        let start = Instant::now();
        run_sinkless(events);
        let sinkless = start.elapsed().as_secs_f64();
        ratios.push(sinkless / plain);
        best_plain = best_plain.min(plain);
        best_sinkless = best_sinkless.min(sinkless);
    }
    ratios.sort_by(f64::total_cmp);
    let pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    println!(
        "monitor gate: plain {:.3} ms, sink-less monitor {:.3} ms (best of {} pairs), \
         median pair ratio {:+.2}% (allowance {:.1}%)",
        best_plain * 1e3,
        best_sinkless * 1e3,
        GATE_PAIRS,
        pct,
        max_pct
    );
    if pct > max_pct {
        return Err(format!(
            "detached-sink monitor plumbing costs {pct:+.2}% over the plain hot \
             path (allowance {max_pct:.1}%) — monitoring work is leaking outside \
             the attached-monitor guards"
        ));
    }
    Ok(())
}

fn main() {
    // --- End-to-end: a fig5-style run (one stress sequence, 20 events). ---
    let events = generate(BASE_SEED, 20, Scenario::Stress);

    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--gate") {
        let max_pct: f64 = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--gate needs a percent allowance, e.g. --gate 4");
        if let Err(message) = gate(&events, max_pct) {
            eprintln!("obs_overhead gate: FAIL — {message}");
            std::process::exit(1);
        }
        return;
    }

    let plain = median_secs(|| run_plain(&events));
    let metered = median_secs(|| {
        let report = Testbed::new(NimblockScheduler::default())
            .with_metrics(Registry::new())
            .run(&events);
        assert_eq!(report.records().len(), 20);
    });
    let monitored = median_secs(|| run_monitored(&events));
    let traced = median_secs(|| {
        let (report, _trace) = Testbed::new(NimblockScheduler::default()).run_traced(&events);
        assert_eq!(report.records().len(), 20);
    });

    let overhead = |x: f64| (x / plain - 1.0) * 100.0;
    println!("End-to-end fig5-style run (median of repeated runs):");
    println!("  plain     (detached handles): {:>8.3} ms", plain * 1e3);
    println!(
        "  metered   (registry attached): {:>7.3} ms  ({:+.2}% vs plain)",
        metered * 1e3,
        overhead(metered)
    );
    println!(
        "  monitored (windows+SLO rules): {:>7.3} ms  ({:+.2}% vs plain)",
        monitored * 1e3,
        overhead(monitored)
    );
    println!(
        "  traced    (schedule tracing):  {:>7.3} ms  ({:+.2}% vs plain)",
        traced * 1e3,
        overhead(traced)
    );
    println!(
        "\nThe disabled-instrumentation path IS the plain path: without a\n\
         registry every handle is a detached atomic, and without a monitor\n\
         every emission point is one Option check, so there is no separate\n\
         \"instrumentation off\" build to compare against. The metered and\n\
         monitored runs above bound the full cost of live telemetry.\n"
    );

    // --- Micro: raw per-op instrument costs. ---
    let mut runner = Runner::new("obs_overhead");
    let detached = Counter::detached();
    runner.bench("counter_inc_detached", || detached.inc());
    let registry = Registry::new();
    let registered = registry.counter("bench_counter_total", "bench");
    runner.bench("counter_inc_registered", || registered.inc());
    let histogram = Histogram::detached();
    let mut v = 0u64;
    runner.bench("histogram_observe_detached", || {
        v = v.wrapping_add(2_654_435_761);
        histogram.observe(v >> 32);
    });
    let registered_h = registry.histogram("bench_histogram", "bench");
    runner.bench("histogram_observe_registered", || {
        v = v.wrapping_add(2_654_435_761);
        registered_h.observe(v >> 32);
    });
    runner.bench("render_prometheus", || registry.render_prometheus());
    // Monitor hot-path ops through the shared handle (lock included),
    // advancing virtual time so window rollover cost is in the number.
    let monitor = MonitorHandle::new(monitor_config(), 4);
    let mut now = 0u64;
    runner.bench("monitor_sample_attached", || {
        now = now.wrapping_add(137);
        monitor.with(|m| m.sample(now, 3, 3, 2));
    });
    runner.bench("monitor_arrival_attached", || {
        now = now.wrapping_add(137);
        monitor.with(|m| m.on_arrival(now));
    });
    runner.finish();
}
