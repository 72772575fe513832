//! Continuous observability: virtual-time time-series, a flight
//! recorder, and an SLO rules engine.
//!
//! Everything else in this crate reports end-of-run aggregates; this
//! module watches a run *as it advances*. Three pieces:
//!
//! - **[`MonitorState`]** — a fixed-memory tumbling-window aggregator.
//!   Virtual time is cut into windows of [`MonitorConfig::window_micros`]
//!   (default 10 ms of simulated time); each [`Window`] accumulates slot
//!   busy time, queue-depth / waiting / running peaks, arrival / retire /
//!   preemption / reconfiguration counts, bitstream-cache hits, and
//!   per-priority response and slowdown [`SparseSketch`]es. Windows are
//!   keyed by virtual time only — never the wall clock — so the series is
//!   a pure function of the schedule and merges across cluster boards
//!   byte-identically for any thread count.
//! - **[`FlightRecorder`]** — a capacity-bounded ring of the last N
//!   hypervisor events and scheduler decisions (drop-counting, like
//!   [`crate::SpanBuffer`]), dumped into a post-mortem [`MonitorDoc`]
//!   when an invariant fails or the run panics.
//! - **[`SloEngine`]** — declarative per-window rules ([`SloRule`]):
//!   response-time ceilings per priority class, a utilization floor, a
//!   queue-depth ceiling, and multi-window burn rates. Rules are
//!   evaluated as windows close, emitting bounded structured [`Alert`]
//!   records and `slo`-target log lines.
//!
//! Quantiles reuse the exact bucketing of [`QuantileDigest`]
//! ([`QuantileDigest::bucket_index`]), stored sparsely per window, so
//! per-window sketches merge exactly — the same guarantee the registry's
//! full digests give — in a few dozen bytes per window instead of
//! ~15 KiB.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use nimblock_ser::impl_json_struct;

use crate::registry::QuantileDigest;
use crate::{nb_debug, nb_warn};

/// Default tumbling-window length: 10 ms of simulated time.
pub const DEFAULT_WINDOW_MICROS: u64 = 10_000;
/// Default maximum number of windows kept per run.
pub const DEFAULT_WINDOW_CAPACITY: usize = 8_192;
/// Default flight-recorder ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 256;
/// Default maximum number of stored alerts.
pub const DEFAULT_ALERT_CAPACITY: usize = 1_024;

// ---------------------------------------------------------------------------
// SparseSketch
// ---------------------------------------------------------------------------

/// A sparse per-window quantile sketch sharing [`QuantileDigest`]'s
/// fixed bucketing scheme.
///
/// A full digest is a ~15 KiB dense array — far too heavy to store per
/// window — so this sketch keeps only the occupied `(bucket, count)`
/// pairs, sorted by bucket index. Because the bucket boundaries are
/// *identical* to the digest's, [`SparseSketch::merge_from`] is exact
/// bucket-wise addition: per-board window sketches merge into precisely
/// the sketch the single-threaded oracle records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseSketch {
    /// Occupied `(bucket index, count)` pairs, ascending by bucket.
    buckets: Vec<(u64, u64)>,
    count: u64,
    sum: u64,
}

impl_json_struct!(SparseSketch { buckets, count, sum });

impl SparseSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        SparseSketch::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = QuantileDigest::bucket_index(value) as u64;
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
        self.count += 1;
        self.sum += value;
    }

    /// Returns the number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Returns `true` if nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns the value at quantile `permille`/1000 — the bucket upper
    /// bound of the observation of rank `ceil(permille * count / 1000)`,
    /// exactly as [`QuantileDigest::quantile`] reports it, but computed
    /// in integer arithmetic so merged series render byte-identically.
    /// Returns 0 for an empty sketch.
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (permille.saturating_mul(self.count)).div_ceil(1000).clamp(1, self.count);
        let mut running = 0u64;
        for &(bucket, n) in &self.buckets {
            running += n;
            if running >= rank {
                return QuantileDigest::bucket_upper_bound(bucket as usize);
            }
        }
        self.buckets
            .last()
            .map(|&(b, _)| QuantileDigest::bucket_upper_bound(b as usize))
            .unwrap_or(0)
    }

    /// Adds `other`'s buckets, count, and sum into this sketch. Exact,
    /// because both sides share the digest's fixed bucket boundaries.
    pub fn merge_from(&mut self, other: &SparseSketch) {
        for &(bucket, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (bucket, n)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

/// One closed tumbling window of the time-series.
///
/// The window's position in [`MonitorState::windows`] is its index:
/// window `w` covers simulated time `[w·W, (w+1)·W)` for window length
/// `W`. Counters count events whose timestamp falls inside the window;
/// `busy_micros` sums slot-busy time (reconfiguration streams plus item
/// execution) clipped to the window; the `*_peak` gauges record the
/// maximum sampled value inside the window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Window {
    /// Slot-busy microseconds inside this window (≤ slots × window).
    pub busy_micros: u64,
    /// Peak number of unplaced tasks across live apps (work backlog).
    pub queue_depth_peak: u64,
    /// Peak number of live apps holding no slot at all.
    pub waiting_peak: u64,
    /// Peak number of live apps holding at least one slot.
    pub running_peak: u64,
    /// Applications admitted in this window.
    pub arrivals: u64,
    /// Applications retired in this window.
    pub retires: u64,
    /// Preemptions enacted in this window.
    pub preemptions: u64,
    /// Reconfiguration streams started in this window.
    pub reconfigurations: u64,
    /// Bitstream-cache hits during admissions in this window.
    pub cache_hits: u64,
    /// Bitstream-cache misses during admissions in this window.
    pub cache_misses: u64,
    /// Response times (µs) of low-priority (weight 1) retirees.
    pub resp_low: SparseSketch,
    /// Response times (µs) of medium-priority (weight 3) retirees.
    pub resp_med: SparseSketch,
    /// Response times (µs) of high-priority (weight 9) retirees.
    pub resp_high: SparseSketch,
    /// Slowdown (×1000) of low-priority retirees.
    pub slow_low: SparseSketch,
    /// Slowdown (×1000) of medium-priority retirees.
    pub slow_med: SparseSketch,
    /// Slowdown (×1000) of high-priority retirees.
    pub slow_high: SparseSketch,
}

impl_json_struct!(Window {
    busy_micros,
    queue_depth_peak,
    waiting_peak,
    running_peak,
    arrivals,
    retires,
    preemptions,
    reconfigurations,
    cache_hits,
    cache_misses,
    resp_low,
    resp_med,
    resp_high,
    slow_low,
    slow_med,
    slow_high
});

impl Window {
    /// Slot utilization in permille: busy time over `slots` slots of
    /// `window_micros` capacity. Returns 0 when capacity is zero.
    pub fn utilization_permille(&self, slots: u64, window_micros: u64) -> u64 {
        let capacity_micros = slots.saturating_mul(window_micros);
        if capacity_micros == 0 {
            return 0;
        }
        self.busy_micros.saturating_mul(1000) / capacity_micros
    }

    /// Returns the response sketch of the priority class with `weight`
    /// (1 = low, 3 = medium, anything else high — weights are 1/3/9).
    pub fn response_sketch(&self, weight: u64) -> &SparseSketch {
        match weight {
            1 => &self.resp_low,
            3 => &self.resp_med,
            _ => &self.resp_high,
        }
    }

    /// Folds `other` (the same window index on another cluster board)
    /// into this window: counters and busy time add, sketches merge
    /// exactly, and the sampled peaks *sum* — each board peaks at its own
    /// instant, so the sum is an upper bound on the cluster-wide
    /// simultaneous depth (documented in DESIGN.md §15).
    pub fn merge_from(&mut self, other: &Window) {
        self.busy_micros += other.busy_micros;
        self.queue_depth_peak += other.queue_depth_peak;
        self.waiting_peak += other.waiting_peak;
        self.running_peak += other.running_peak;
        self.arrivals += other.arrivals;
        self.retires += other.retires;
        self.preemptions += other.preemptions;
        self.reconfigurations += other.reconfigurations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.resp_low.merge_from(&other.resp_low);
        self.resp_med.merge_from(&other.resp_med);
        self.resp_high.merge_from(&other.resp_high);
        self.slow_low.merge_from(&other.slow_low);
        self.slow_med.merge_from(&other.slow_med);
        self.slow_high.merge_from(&other.slow_high);
    }
}

// ---------------------------------------------------------------------------
// SLO rules
// ---------------------------------------------------------------------------

/// One parsed SLO rule, evaluated per closed window by [`SloEngine`].
///
/// Grammar (see DESIGN.md §15):
///
/// ```text
/// resp:<low|med|high>:<p50|p95|p99><=<duration>        response ceiling
/// util>=<percent>%                                     utilization floor
/// queue<=<n>                                           queue-depth ceiling
/// burn:<low|med|high>:<p50|p95|p99><=<duration>@<n>/<m>  burn rate
/// ```
///
/// Durations take a `us`, `ms`, or `s` suffix. A burn rule alerts when
/// at least `n` of the trailing `m` windows breach the inner response
/// ceiling — the multi-window "error budget burn" form of the response
/// rule, robust to a single noisy window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    source: String,
    kind: RuleKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RuleKind {
    /// Class response quantile must stay at or below `ceiling_us`.
    Response { weight: u64, permille: u64, ceiling_us: u64 },
    /// Window utilization must stay at or above `permille`.
    UtilizationFloor { permille: u64 },
    /// Peak queue depth must stay at or below `max`.
    QueueCeiling { max: u64 },
    /// At least `needed` of the trailing `span` windows breached the
    /// inner response ceiling.
    Burn { weight: u64, permille: u64, ceiling_us: u64, needed: u64, span: u64 },
}

fn parse_class(text: &str) -> Result<u64, String> {
    match text {
        "low" => Ok(1),
        "med" => Ok(3),
        "high" => Ok(9),
        other => Err(format!("unknown priority class `{other}` (expected low|med|high)")),
    }
}

fn parse_quantile(text: &str) -> Result<u64, String> {
    match text {
        "p50" => Ok(500),
        "p95" => Ok(950),
        "p99" => Ok(990),
        other => Err(format!("unknown quantile `{other}` (expected p50|p95|p99)")),
    }
}

fn parse_duration_us(text: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        return Err(format!("duration `{text}` needs a us|ms|s suffix"));
    };
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("duration `{text}` is not a whole number"))?;
    Ok(value * scale)
}

impl SloRule {
    /// Parses one rule from its textual form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part of the spec.
    pub fn parse(spec: &str) -> Result<SloRule, String> {
        let spec = spec.trim();
        let kind = if let Some(rest) = spec.strip_prefix("resp:") {
            let (class, rest) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{spec}`: expected resp:<class>:<quantile><=<dur>"))?;
            let (quant, ceiling) = rest
                .split_once("<=")
                .ok_or_else(|| format!("`{spec}`: expected <quantile><=<duration>"))?;
            RuleKind::Response {
                weight: parse_class(class)?,
                permille: parse_quantile(quant)?,
                ceiling_us: parse_duration_us(ceiling)?,
            }
        } else if let Some(rest) = spec.strip_prefix("burn:") {
            let (class, rest) = rest
                .split_once(':')
                .ok_or_else(|| format!("`{spec}`: expected burn:<class>:<quantile><=<dur>@<n>/<m>"))?;
            let (quant, rest) = rest
                .split_once("<=")
                .ok_or_else(|| format!("`{spec}`: expected <quantile><=<duration>@<n>/<m>"))?;
            let (ceiling, rate) = rest
                .split_once('@')
                .ok_or_else(|| format!("`{spec}`: burn rule needs a trailing @<n>/<m>"))?;
            let (needed, span) = rate
                .split_once('/')
                .ok_or_else(|| format!("`{spec}`: burn rate must be <n>/<m> windows"))?;
            let needed: u64 = needed
                .parse()
                .map_err(|_| format!("`{spec}`: breach count `{needed}` is not a number"))?;
            let span: u64 = span
                .parse()
                .map_err(|_| format!("`{spec}`: window span `{span}` is not a number"))?;
            if span == 0 || needed == 0 || needed > span {
                return Err(format!("`{spec}`: burn rate needs 0 < n <= m"));
            }
            RuleKind::Burn {
                weight: parse_class(class)?,
                permille: parse_quantile(quant)?,
                ceiling_us: parse_duration_us(ceiling)?,
                needed,
                span,
            }
        } else if let Some(rest) = spec.strip_prefix("util>=") {
            let pct = rest
                .strip_suffix('%')
                .ok_or_else(|| format!("`{spec}`: utilization floor needs a % suffix"))?;
            let pct: u64 = pct
                .parse()
                .map_err(|_| format!("`{spec}`: percentage `{pct}` is not a whole number"))?;
            if pct > 100 {
                return Err(format!("`{spec}`: utilization floor above 100%"));
            }
            RuleKind::UtilizationFloor { permille: pct * 10 }
        } else if let Some(rest) = spec.strip_prefix("queue<=") {
            let max: u64 = rest
                .parse()
                .map_err(|_| format!("`{spec}`: queue ceiling `{rest}` is not a number"))?;
            RuleKind::QueueCeiling { max }
        } else {
            return Err(format!(
                "unknown rule `{spec}` (expected resp:…, burn:…, util>=…%, or queue<=…)"
            ));
        };
        Ok(SloRule { source: spec.to_owned(), kind })
    }

    /// The rule's textual form, exactly as parsed.
    pub fn source(&self) -> &str {
        &self.source
    }
}

impl std::fmt::Display for SloRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

/// Parses a list of rule specs, stopping at the first malformed one.
///
/// # Errors
///
/// Returns the parse error of the first malformed spec.
pub fn parse_rules(specs: &[String]) -> Result<Vec<SloRule>, String> {
    specs.iter().map(|s| SloRule::parse(s)).collect()
}

/// One fired SLO alert: which rule, which window, observed vs limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Source text of the violated rule.
    pub rule: String,
    /// Index of the breaching window.
    pub window: u64,
    /// Simulated microseconds at the window's end (when it became final).
    pub at_us: u64,
    /// The observed value (µs, permille, or depth, per the rule).
    pub value: u64,
    /// The rule's limit in the same unit.
    pub limit: u64,
    /// Human-readable description.
    pub message: String,
}

impl_json_struct!(Alert { rule, window, at_us, value, limit, message });

/// Evaluates [`SloRule`]s window by window, accumulating bounded
/// [`Alert`] records.
///
/// Feeding the same window sequence always produces the same alerts, so
/// the live single-board path (windows fed as they close) and the
/// cluster path (windows fed after the deterministic board merge) agree
/// whenever their series agree.
#[derive(Debug, Clone)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    /// Per-rule trailing breach flags (burn rules only use theirs).
    trailing: Vec<VecDeque<bool>>,
    alerts: Vec<Alert>,
    capacity: usize,
    dropped: u64,
}

impl SloEngine {
    /// Creates an engine over `rules` storing at most
    /// [`DEFAULT_ALERT_CAPACITY`] alerts.
    pub fn new(rules: Vec<SloRule>) -> Self {
        let trailing = rules.iter().map(|_| VecDeque::new()).collect();
        SloEngine {
            rules,
            trailing,
            alerts: Vec::new(),
            capacity: DEFAULT_ALERT_CAPACITY,
            dropped: 0,
        }
    }

    /// The rules this engine evaluates.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Alerts fired so far, in window order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts discarded because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stores one alert, building its strings only if the store has
    /// room — past capacity a breach costs one counter bump, not an
    /// allocation (alerting runs on the simulation hot path).
    fn fire(
        &mut self,
        source: &str,
        window: u64,
        at_us: u64,
        value: u64,
        limit: u64,
        message: impl FnOnce() -> String,
    ) {
        nb_warn!(
            "slo",
            "msg=\"alert\" rule=\"{source}\" window={window} value={value} limit={limit}",
        );
        if self.alerts.len() < self.capacity {
            self.alerts.push(Alert {
                rule: source.to_owned(),
                window,
                at_us,
                value,
                limit,
                message: message(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Evaluates every rule against one newly closed window.
    pub fn on_window(&mut self, index: u64, window: &Window, slots: u64, window_micros: u64) {
        let at_us = (index + 1).saturating_mul(window_micros);
        // Borrow dance: the rules move out for the loop (an O(1) Vec
        // swap) so `fire` can take `&mut self` without cloning a rule
        // per window.
        let rules = std::mem::take(&mut self.rules);
        for (r, rule) in rules.iter().enumerate() {
            match rule.kind {
                RuleKind::Response { weight, permille, ceiling_us } => {
                    let sketch = window.response_sketch(weight);
                    if sketch.is_empty() {
                        continue;
                    }
                    let q = sketch.quantile_permille(permille);
                    if q > ceiling_us {
                        self.fire(&rule.source, index, at_us, q, ceiling_us, || {
                            format!(
                                "response p{permille}‰ {q}us exceeds {ceiling_us}us in window {index}"
                            )
                        });
                    }
                }
                RuleKind::UtilizationFloor { permille } => {
                    let util = window.utilization_permille(slots, window_micros);
                    if util < permille {
                        self.fire(&rule.source, index, at_us, util, permille, || {
                            format!(
                                "utilization {util}‰ below floor {permille}‰ in window {index}"
                            )
                        });
                    }
                }
                RuleKind::QueueCeiling { max } => {
                    let peak = window.queue_depth_peak;
                    if peak > max {
                        self.fire(&rule.source, index, at_us, peak, max, || {
                            format!(
                                "queue depth peaked at {peak} over ceiling {max} in window {index}"
                            )
                        });
                    }
                }
                RuleKind::Burn { weight, permille, ceiling_us, needed, span } => {
                    let sketch = window.response_sketch(weight);
                    let breached =
                        !sketch.is_empty() && sketch.quantile_permille(permille) > ceiling_us;
                    let trail = &mut self.trailing[r];
                    trail.push_back(breached);
                    while trail.len() as u64 > span {
                        trail.pop_front();
                    }
                    let burned = trail.iter().filter(|&&b| b).count() as u64;
                    if burned >= needed {
                        self.fire(&rule.source, index, at_us, burned, needed, || {
                            format!(
                                "{burned} of the trailing {span} windows breached \
                                 p{permille}‰ <= {ceiling_us}us (budget {needed})"
                            )
                        });
                    }
                }
            }
        }
        self.rules = rules;
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One flight-recorder entry: a hypervisor event or scheduler decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderEntry {
    /// Simulated microseconds.
    pub at_us: u64,
    /// Cluster board index (0 for single-board runs).
    pub board: u64,
    /// Entry kind: `arrival`, `reconfig`, `preempt`, `item`, `retire`.
    pub kind: String,
    /// Free-form detail (app, task, slot, timings).
    pub detail: String,
}

impl_json_struct!(RecorderEntry { at_us, board, kind, detail });

/// A capacity-bounded ring of the most recent [`RecorderEntry`]s.
///
/// Unlike [`crate::SpanBuffer`] (which keeps the *first* N and drops the
/// rest), a flight recorder keeps the *last* N: when full, the oldest
/// entry is evicted and counted in [`FlightRecorder::dropped`]. Both
/// shapes are hard-capacity recording buffers, enforced by the
/// `no-unbounded-span-buffer` lint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecorder {
    entries: VecDeque<RecorderEntry>,
    capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder { entries: VecDeque::new(), capacity, dropped: 0 }
    }

    /// Appends `entry`, evicting (and drop-counting) the oldest entry
    /// when the ring is full.
    pub fn push(&mut self, entry: RecorderEntry) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Like [`FlightRecorder::push`], but the entry strings are built
    /// only if the ring retains entries at all — a sink-less
    /// (zero-capacity) recorder costs one counter bump per event, no
    /// allocation.
    pub fn push_with(
        &mut self,
        at_us: u64,
        board: u64,
        kind: &str,
        detail: impl FnOnce() -> String,
    ) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        // Copies the short static kind label into the bounded ring only
        // when monitoring is enabled. nimblock: allow(hot-path-no-alloc)
        self.push(RecorderEntry { at_us, board, kind: kind.to_owned(), detail: detail() });
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &RecorderEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

/// Configuration of a [`MonitorState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Tumbling-window length in simulated microseconds.
    pub window_micros: u64,
    /// Maximum number of windows retained (fixed-memory guarantee).
    pub window_capacity: usize,
    /// Flight-recorder ring capacity.
    pub ring_capacity: usize,
    /// SLO rules to evaluate as windows close.
    pub rules: Vec<SloRule>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_micros: DEFAULT_WINDOW_MICROS,
            window_capacity: DEFAULT_WINDOW_CAPACITY,
            ring_capacity: DEFAULT_RING_CAPACITY,
            rules: Vec::new(),
        }
    }
}

impl MonitorConfig {
    /// A config with `window_micros`-long windows and defaults elsewhere.
    pub fn with_window_micros(window_micros: u64) -> Self {
        MonitorConfig { window_micros, ..MonitorConfig::default() }
    }

    /// Returns this config with `rules` replacing the current rule set.
    pub fn rules(mut self, rules: Vec<SloRule>) -> Self {
        self.rules = rules;
        self
    }

    /// Returns this config with the rule set cleared — cluster boards
    /// aggregate windows only; rules run once, on the merged series.
    pub fn without_rules(mut self) -> Self {
        self.rules = Vec::new();
        self
    }
}

/// The continuous-observability aggregator of one run (or one cluster
/// board): tumbling windows, flight recorder, and SLO engine.
///
/// All timestamps are simulated microseconds; the state never reads the
/// wall clock. Events arrive in non-decreasing time, so a window is
/// *final* once `now` passes its end — [`MonitorState::advance`] then
/// feeds it to the SLO engine exactly once.
#[derive(Debug, Clone)]
pub struct MonitorState {
    config: MonitorConfig,
    slots: u64,
    board: u64,
    windows: Vec<Window>,
    /// Observations discarded because they fell past `window_capacity`.
    dropped: u64,
    /// Number of leading windows already fed to the SLO engine.
    evaluated: u64,
    /// Per-slot planned end of the in-flight item (µs; 0 = none), so a
    /// fine-grained abort can subtract the un-executed remainder.
    open_until: Vec<u64>,
    /// The last sampled occupancy (queue depth, waiting, running) and
    /// the window it landed in. Emitters only sample when the
    /// scheduling state *changes*, so windows an unchanged state spans
    /// entirely are seeded from here — they saw exactly those values.
    last_sample: (u64, u64, u64),
    last_sample_window: u64,
    recorder: FlightRecorder,
    engine: SloEngine,
}

impl MonitorState {
    /// Creates a monitor for a device with `slots` slots.
    pub fn new(config: MonitorConfig, slots: usize) -> Self {
        let engine = SloEngine::new(config.rules.clone());
        let recorder = FlightRecorder::with_capacity(config.ring_capacity);
        MonitorState {
            config,
            slots: slots as u64,
            board: 0,
            windows: Vec::new(),
            dropped: 0,
            evaluated: 0,
            open_until: vec![0; slots],
            last_sample: (0, 0, 0),
            last_sample_window: 0,
            recorder,
            engine,
        }
    }

    /// Tags subsequent flight-recorder entries with a board index.
    pub fn set_board(&mut self, board: u64) {
        self.board = board;
    }

    /// (Re)binds the monitor to a device with `slots` slots. The
    /// hypervisor calls this on attach so the utilization denominator
    /// and per-slot abort tracking always match the actual device.
    pub fn set_slots(&mut self, slots: usize) {
        self.slots = slots as u64;
        self.open_until.resize(slots, 0);
    }

    /// The slot count behind the utilization denominator (summed across
    /// boards after a cluster merge).
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The closed and in-progress windows so far, window 0 first.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> &[Alert] {
        self.engine.alerts()
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Observations discarded past the window capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn window_mut(&mut self, index: u64) -> Option<&mut Window> {
        if index >= self.config.window_capacity as u64 {
            self.dropped += 1;
            return None;
        }
        let index = index as usize;
        while self.windows.len() <= index && self.windows.len() < self.config.window_capacity {
            self.windows.push(Window::default());
        }
        self.windows.get_mut(index)
    }

    fn index_of(&self, at_us: u64) -> u64 {
        at_us / self.config.window_micros.max(1)
    }

    /// The first instant past the last window the capacity can hold;
    /// busy intervals are clipped here so a long run does not walk
    /// window-by-window through time the series cannot record anyway.
    fn horizon_us(&self) -> u64 {
        (self.config.window_capacity as u64).saturating_mul(self.config.window_micros.max(1))
    }

    /// Distributes busy microseconds over `[start, until)`, clipped at
    /// window boundaries. The portion past the capacity horizon is one
    /// dropped observation, not one per spanned window.
    fn add_busy(&mut self, start: u64, until: u64) {
        let horizon = self.horizon_us();
        if until > horizon {
            self.dropped += 1;
        }
        let until = until.min(horizon);
        let w = self.config.window_micros.max(1);
        let mut t = start;
        while t < until {
            let index = t / w;
            let window_end = (index + 1).saturating_mul(w);
            let chunk = until.min(window_end) - t;
            if let Some(window) = self.window_mut(index) {
                window.busy_micros += chunk;
            }
            t = window_end;
        }
    }

    /// Removes busy microseconds over `[start, until)` — the un-executed
    /// remainder of an aborted (fine-grained preempted) item. Clipped at
    /// the capacity horizon exactly like `add_busy`, so an abort undoes
    /// precisely what the launch recorded (without a second drop: the
    /// clipped launch already counted).
    fn sub_busy(&mut self, start: u64, until: u64) {
        let horizon = self.horizon_us();
        let until = until.min(horizon);
        let w = self.config.window_micros.max(1);
        let mut t = start;
        while t < until {
            let index = t / w;
            let window_end = (index + 1).saturating_mul(w);
            let chunk = until.min(window_end) - t;
            if let Some(window) = self.window_mut(index) {
                window.busy_micros = window.busy_micros.saturating_sub(chunk);
            }
            t = window_end;
        }
    }

    /// An application was admitted at `now`.
    pub fn on_arrival(&mut self, now: u64) {
        let index = self.index_of(now);
        if let Some(window) = self.window_mut(index) {
            window.arrivals += 1;
        }
    }

    /// One bitstream-cache lookup during admission.
    pub fn on_cache(&mut self, now: u64, hit: bool) {
        let index = self.index_of(now);
        if let Some(window) = self.window_mut(index) {
            if hit {
                window.cache_hits += 1;
            } else {
                window.cache_misses += 1;
            }
        }
    }

    /// A preemption was enacted at `now`.
    pub fn on_preempt(&mut self, now: u64) {
        let index = self.index_of(now);
        if let Some(window) = self.window_mut(index) {
            window.preemptions += 1;
        }
    }

    /// A reconfiguration stream occupies its slot over `[start, until)`.
    pub fn on_reconfig(&mut self, start: u64, until: u64) {
        let index = self.index_of(start);
        if let Some(window) = self.window_mut(index) {
            window.reconfigurations += 1;
        }
        self.add_busy(start, until);
    }

    /// An item was launched on `slot`, planned to run `[at, until)`.
    /// Busy time is accounted at launch so a window is final the moment
    /// `now` passes its end; an abort subtracts the remainder.
    pub fn on_item_launch(&mut self, slot: usize, at: u64, until: u64) {
        self.add_busy(at, until);
        if let Some(open) = self.open_until.get_mut(slot) {
            *open = until;
        }
    }

    /// The item on `slot` was aborted at `now` by a fine-grained
    /// preemption: its un-executed remainder leaves the busy series. A
    /// completed item's span ended at or before `now`, so it subtracts
    /// nothing; completions need no hook of their own.
    pub fn on_item_abort(&mut self, slot: usize, now: u64) {
        let Some(open) = self.open_until.get_mut(slot) else { return };
        let until = std::mem::take(open);
        if until > now {
            self.sub_busy(now, until);
        }
    }

    /// An application with priority `weight` (1/3/9) retired at `now`
    /// with the given response time and slowdown (×1000).
    pub fn on_retire(&mut self, now: u64, weight: u64, response_us: u64, slowdown_milli: u64) {
        let index = self.index_of(now);
        if let Some(window) = self.window_mut(index) {
            window.retires += 1;
            match weight {
                1 => {
                    window.resp_low.observe(response_us);
                    window.slow_low.observe(slowdown_milli);
                }
                3 => {
                    window.resp_med.observe(response_us);
                    window.slow_med.observe(slowdown_milli);
                }
                _ => {
                    window.resp_high.observe(response_us);
                    window.slow_high.observe(slowdown_milli);
                }
            }
        }
    }

    /// Samples the scheduling state after an event: `queue_depth`
    /// unplaced tasks, `waiting` slotless apps, `running` apps holding a
    /// slot. Each window keeps the peak of every sample inside it.
    ///
    /// Emitters need only call this when the state *changes*: the
    /// previous sample is carried through every window up to and
    /// including this one first, since the unchanged state is what
    /// those windows observed. (Carried seeds into windows past the
    /// capacity bound are silently clipped — they are re-statements of
    /// an already-recorded observation, not new ones, so they do not
    /// count as drops.)
    pub fn sample(&mut self, now: u64, queue_depth: u64, waiting: u64, running: u64) {
        self.advance(now);
        let index = self.index_of(now);
        let (q, w, r) = self.last_sample;
        let capacity = self.config.window_capacity as u64;
        let mut fill = self.last_sample_window + 1;
        while fill <= index.min(capacity.saturating_sub(1)) {
            if let Some(window) = self.window_mut(fill) {
                window.queue_depth_peak = window.queue_depth_peak.max(q);
                window.waiting_peak = window.waiting_peak.max(w);
                window.running_peak = window.running_peak.max(r);
            }
            fill += 1;
        }
        if let Some(window) = self.window_mut(index) {
            window.queue_depth_peak = window.queue_depth_peak.max(queue_depth);
            window.waiting_peak = window.waiting_peak.max(waiting);
            window.running_peak = window.running_peak.max(running);
        }
        self.last_sample = (queue_depth, waiting, running);
        self.last_sample_window = index;
    }

    /// Records one flight-recorder entry (the board tag is stamped here).
    pub fn record(&mut self, at_us: u64, kind: &str, detail: impl FnOnce() -> String) {
        let board = self.board;
        self.recorder.push_with(at_us, board, kind, detail);
    }

    /// Feeds every window that ended at or before `now` to the SLO
    /// engine (each exactly once). Windows between samples that saw no
    /// event still count — an all-idle window legitimately breaches a
    /// utilization floor.
    pub fn advance(&mut self, now: u64) {
        let final_count = self.index_of(now);
        if final_count == 0 || final_count <= self.evaluated {
            return;
        }
        // Materialize idle windows up to the last final one.
        let _ = self.window_mut(final_count - 1);
        let last = final_count.min(self.windows.len() as u64);
        let MonitorState { windows, engine, config, slots, .. } = self;
        for index in self.evaluated..last {
            engine.on_window(index, &windows[index as usize], *slots, config.window_micros);
        }
        self.evaluated = last.max(self.evaluated);
    }

    /// Closes out the run at `end_us`: every remaining window (up to the
    /// one containing the last instant before `end_us`) is evaluated. An
    /// `end_us` on an exact boundary does not open the next window.
    pub fn finalize(&mut self, end_us: u64) {
        if end_us > 0 {
            let _ = self.window_mut(self.index_of(end_us - 1));
        }
        let MonitorState { windows, engine, config, slots, evaluated, .. } = self;
        for index in *evaluated..windows.len() as u64 {
            engine.on_window(index, &windows[index as usize], *slots, config.window_micros);
        }
        *evaluated = windows.len() as u64;
        nb_debug!(
            "slo",
            "msg=\"finalized\" windows={} alerts={} end_us={end_us}",
            windows.len(),
            engine.alerts().len(),
        );
    }

    /// Folds another board's monitor into this one, window-index-wise.
    /// Call in strictly ascending board order so the flight-recorder
    /// concatenation (and therefore the merged doc) is deterministic.
    /// The other board's alerts are discarded: rules are re-evaluated on
    /// the merged series via [`MonitorState::evaluate_merged`].
    pub fn merge_from(&mut self, other: &MonitorState) {
        for (index, window) in other.windows.iter().enumerate() {
            if let Some(mine) = self.window_mut(index as u64) {
                mine.merge_from(window);
            }
        }
        self.slots += other.slots;
        self.dropped += other.dropped;
        for entry in other.recorder.entries() {
            self.recorder.push(entry.clone());
        }
    }

    /// Re-evaluates the rule set from scratch over the (merged) window
    /// series. A pure function of the windows, so any board merge order
    /// producing the same series produces the same alerts.
    pub fn evaluate_merged(&mut self) {
        self.engine = SloEngine::new(self.config.rules.clone());
        self.evaluated = 0;
        let MonitorState { windows, engine, config, slots, .. } = self;
        for (index, window) in windows.iter().enumerate() {
            engine.on_window(index as u64, window, *slots, config.window_micros);
        }
        self.evaluated = windows.len() as u64;
    }

    /// Snapshots this monitor into its serializable document form.
    pub fn to_doc(&self) -> MonitorDoc {
        MonitorDoc {
            window_micros: self.config.window_micros,
            slots: self.slots,
            windows: self.windows.clone(),
            dropped: self.dropped,
            rules: self.config.rules.iter().map(|r| r.source().to_owned()).collect(),
            alerts: self.engine.alerts().to_vec(),
            dropped_alerts: self.engine.dropped(),
            recorder: self.recorder.entries().cloned().collect(),
            recorder_dropped: self.recorder.dropped(),
            trigger: None,
            span_tree: None,
        }
    }
}

/// A shared, cloneable handle to a [`MonitorState`].
///
/// The hypervisor holds one (optionally) and the run driver holds a
/// clone, so a post-mortem can be dumped even when the run itself
/// panicked — the state survives in the `Arc`. Detached runs hold no
/// handle at all; the hot path then pays a single `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct MonitorHandle(Arc<Mutex<MonitorState>>);

impl Default for MonitorState {
    fn default() -> Self {
        MonitorState::new(MonitorConfig::default(), 0)
    }
}

impl MonitorHandle {
    /// Creates a monitor for a device with `slots` slots.
    pub fn new(config: MonitorConfig, slots: usize) -> Self {
        MonitorHandle(Arc::new(Mutex::new(MonitorState::new(config, slots))))
    }

    /// Runs `f` on the locked state. Lock poisoning (a panic while a
    /// previous caller held the lock) is ignored on purpose: the state
    /// is exactly what a post-mortem dump wants to see.
    pub fn with<R>(&self, f: impl FnOnce(&mut MonitorState) -> R) -> R {
        let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut state)
    }

    /// Snapshots the current state as a serializable document.
    pub fn to_doc(&self) -> MonitorDoc {
        self.with(|state| state.to_doc())
    }
}

// ---------------------------------------------------------------------------
// MonitorDoc
// ---------------------------------------------------------------------------

/// The serializable monitoring document: windowed series, rules, alerts,
/// and (for post-mortems) the flight-recorder dump, the trigger, and the
/// failing app's rendered span tree.
///
/// Written by `--timeseries-out` and by post-mortem dumps; read back by
/// `analyze monitor`. Window `w` covers `[w·window_micros,
/// (w+1)·window_micros)` of simulated time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorDoc {
    /// Tumbling-window length in simulated microseconds.
    pub window_micros: u64,
    /// Device slot count (summed across boards for cluster series).
    pub slots: u64,
    /// The windowed series, window 0 first.
    pub windows: Vec<Window>,
    /// Observations discarded past the window capacity.
    pub dropped: u64,
    /// Textual forms of the evaluated SLO rules.
    pub rules: Vec<String>,
    /// Alerts fired, in window order.
    pub alerts: Vec<Alert>,
    /// Alerts discarded because the alert store was full.
    pub dropped_alerts: u64,
    /// Flight-recorder entries, oldest first.
    pub recorder: Vec<RecorderEntry>,
    /// Entries evicted from the flight recorder.
    pub recorder_dropped: u64,
    /// What triggered a post-mortem dump (`None` for plain exports).
    pub trigger: Option<String>,
    /// Rendered span tree of the app implicated by the trigger.
    pub span_tree: Option<String>,
}

impl_json_struct!(MonitorDoc {
    window_micros,
    slots,
    windows,
    dropped,
    rules,
    alerts,
    dropped_alerts,
    recorder,
    recorder_dropped,
    trigger,
    span_tree
});

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window_micros: u64) -> MonitorConfig {
        MonitorConfig::with_window_micros(window_micros)
    }

    #[test]
    fn sparse_sketch_matches_the_dense_digest() {
        let digest = QuantileDigest::detached();
        let mut sketch = SparseSketch::new();
        for v in [0, 1, 31, 32, 33, 100, 999, 40_000, 1 << 40] {
            digest.observe(v);
            sketch.observe(v);
        }
        assert_eq!(sketch.count(), digest.count());
        assert_eq!(sketch.sum(), digest.sum());
        for (q, permille) in [(0.5, 500), (0.95, 950), (0.99, 990)] {
            assert_eq!(sketch.quantile_permille(permille), digest.quantile(q), "q={q}");
        }
    }

    #[test]
    fn sparse_sketch_merge_is_exact() {
        let mut a = SparseSketch::new();
        let mut b = SparseSketch::new();
        let mut whole = SparseSketch::new();
        for v in 0..500u64 {
            if v % 2 == 0 { a.observe(v * 7) } else { b.observe(v * 7) }
            whole.observe(v * 7);
        }
        a.merge_from(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn busy_time_clips_at_window_boundaries() {
        let mut state = MonitorState::new(config(1_000), 2);
        state.on_item_launch(0, 500, 2_500);
        assert_eq!(state.windows()[0].busy_micros, 500);
        assert_eq!(state.windows()[1].busy_micros, 1_000);
        assert_eq!(state.windows()[2].busy_micros, 500);
        // The whole span utilizes 2000/2000 µs of one of two slots.
        assert_eq!(state.windows()[1].utilization_permille(2, 1_000), 500);
    }

    #[test]
    fn aborting_an_item_returns_the_unexecuted_remainder() {
        let mut state = MonitorState::new(config(1_000), 1);
        state.on_item_launch(0, 0, 2_000);
        state.on_item_abort(0, 500);
        assert_eq!(state.windows()[0].busy_micros, 500);
        assert_eq!(state.windows()[1].busy_micros, 0);
        // A second abort is a no-op: the open span was consumed.
        state.on_item_abort(0, 100);
        assert_eq!(state.windows()[0].busy_micros, 500);
    }

    #[test]
    fn windows_are_capacity_bounded_with_counted_drops() {
        let mut cfg = config(1_000);
        cfg.window_capacity = 2;
        let mut state = MonitorState::new(cfg, 1);
        state.on_arrival(100);
        state.on_arrival(5_500);
        assert_eq!(state.windows().len(), 1);
        assert_eq!(state.dropped(), 1);
        assert_eq!(state.windows()[0].arrivals, 1);
    }

    #[test]
    fn sample_peaks_and_counters_land_in_their_windows() {
        let mut state = MonitorState::new(config(1_000), 2);
        state.sample(100, 3, 2, 1);
        state.sample(200, 5, 1, 2);
        state.on_preempt(150);
        state.on_cache(150, true);
        state.on_cache(150, false);
        state.sample(1_200, 1, 1, 1);
        let w0 = &state.windows()[0];
        assert_eq!(w0.queue_depth_peak, 5);
        assert_eq!(w0.waiting_peak, 2);
        assert_eq!(w0.running_peak, 2);
        assert_eq!(w0.preemptions, 1);
        assert_eq!((w0.cache_hits, w0.cache_misses), (1, 1));
        // The (5, 1, 2) state held until the 1 200 µs sample, so window 1
        // observed it too: samples carry forward across window edges.
        assert_eq!(state.windows()[1].queue_depth_peak, 5);
        assert_eq!(state.windows()[1].running_peak, 2);
    }

    #[test]
    fn samples_carry_through_windows_between_state_changes() {
        // Emitters sample only on state changes; the windows an
        // unchanged state spans entirely still record its peaks.
        let mut state = MonitorState::new(config(1_000), 2);
        state.sample(100, 4, 2, 1);
        state.sample(3_500, 0, 0, 0);
        assert_eq!(state.windows().len(), 4);
        for index in 0..=3 {
            assert_eq!(
                state.windows()[index].queue_depth_peak,
                4,
                "window {index} saw the carried backlog"
            );
            assert_eq!(state.windows()[index].waiting_peak, 2);
        }
    }

    #[test]
    fn retire_observations_land_in_their_class_sketch() {
        let mut state = MonitorState::new(config(1_000), 1);
        state.on_retire(100, 1, 500, 1_000);
        state.on_retire(100, 3, 700, 2_000);
        state.on_retire(100, 9, 900, 3_000);
        let w = &state.windows()[0];
        assert_eq!(w.retires, 3);
        assert_eq!(w.resp_low.count(), 1);
        assert_eq!(w.resp_med.count(), 1);
        assert_eq!(w.resp_high.count(), 1);
        let dense = QuantileDigest::detached();
        dense.observe(3_000);
        assert_eq!(w.slow_high.quantile_permille(500), dense.quantile(0.5));
    }

    #[test]
    fn rule_grammar_round_trips() {
        for spec in ["resp:high:p99<=250ms", "util>=55%", "queue<=4", "burn:med:p95<=1s@3/5"] {
            let rule = SloRule::parse(spec).expect(spec);
            assert_eq!(rule.source(), spec);
            assert_eq!(rule.to_string(), spec);
        }
        for bad in [
            "resp:urgent:p99<=1ms",
            "resp:high:p42<=1ms",
            "resp:high:p99<=1d",
            "util>=155%",
            "util>=50",
            "queue<=many",
            "burn:low:p50<=1ms@0/5",
            "burn:low:p50<=1ms@6/5",
            "latency<10ms",
        ] {
            assert!(SloRule::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn response_rule_fires_only_on_breaching_windows() {
        let rules = vec![SloRule::parse("resp:high:p99<=1ms").unwrap()];
        let mut cfg = config(1_000);
        cfg.rules = rules;
        let mut state = MonitorState::new(cfg, 1);
        state.on_retire(100, 9, 500, 1_000); // within budget
        state.on_retire(1_100, 9, 5_000, 1_000); // breach
        state.finalize(2_000);
        let alerts = state.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].window, 1);
        assert!(alerts[0].value > 1_000);
        assert_eq!(alerts[0].limit, 1_000);
    }

    #[test]
    fn burn_rule_needs_enough_breaching_windows() {
        let mut cfg = config(1_000);
        cfg.rules = vec![SloRule::parse("burn:low:p50<=1ms@2/3").unwrap()];
        let mut state = MonitorState::new(cfg, 1);
        state.on_retire(100, 1, 5_000, 1_000); // window 0 breach
        state.on_retire(1_100, 1, 100, 1_000); // window 1 ok
        state.on_retire(2_100, 1, 5_000, 1_000); // window 2 breach -> 2/3
        state.on_retire(3_100, 1, 5_000, 1_000); // window 3 breach -> 2/3 still
        state.finalize(4_000);
        let fired: Vec<u64> = state.alerts().iter().map(|a| a.window).collect();
        assert_eq!(fired, vec![2, 3], "{:?}", state.alerts());
    }

    #[test]
    fn utilization_floor_counts_idle_gap_windows() {
        let mut cfg = config(1_000);
        cfg.rules = vec![SloRule::parse("util>=50%").unwrap()];
        let mut state = MonitorState::new(cfg, 1);
        state.on_item_launch(0, 0, 1_000); // window 0 fully busy
        // Nothing in window 1; activity resumes in window 2.
        state.sample(2_500, 0, 0, 0);
        state.finalize(2_500);
        let fired: Vec<u64> = state.alerts().iter().map(|a| a.window).collect();
        assert_eq!(fired, vec![1, 2], "idle windows breach the floor: {fired:?}");
    }

    #[test]
    fn advance_evaluates_each_window_exactly_once() {
        let mut cfg = config(1_000);
        cfg.rules = vec![SloRule::parse("queue<=0").unwrap()];
        let mut state = MonitorState::new(cfg, 1);
        state.sample(100, 3, 1, 0);
        state.sample(1_100, 0, 0, 0); // closes window 0
        state.sample(1_200, 0, 0, 0); // window 0 must not re-fire
        state.finalize(1_500);
        // Window 0 breaches directly; window 1 breaches via the carried
        // backlog (queue 3 held until the 1 100 µs sample). Each fires
        // exactly once despite the extra sample and the finalize.
        let fired: Vec<u64> = state.alerts().iter().map(|a| a.window).collect();
        assert_eq!(fired, vec![0, 1]);
    }

    #[test]
    fn flight_recorder_keeps_the_last_n() {
        let mut ring = FlightRecorder::with_capacity(2);
        for i in 0..5u64 {
            ring.push(RecorderEntry {
                at_us: i,
                board: 0,
                kind: "arrival".into(),
                detail: format!("app{i}"),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<u64> = ring.entries().map(|e| e.at_us).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn board_merge_then_evaluate_matches_a_single_state() {
        let mut cfg = config(1_000);
        cfg.rules = vec![SloRule::parse("queue<=1").unwrap()];
        // One state seeing everything...
        let mut whole = MonitorState::new(cfg.clone(), 4);
        whole.sample(100, 2, 1, 1);
        whole.on_retire(1_100, 9, 300, 1_000);
        whole.on_item_launch(0, 0, 1_500);
        whole.finalize(2_000);
        // ...versus two boards, each seeing half, merged in board order.
        let mut a = MonitorState::new(cfg.clone().without_rules(), 2);
        a.sample(100, 2, 1, 1);
        a.on_item_launch(0, 0, 1_500);
        a.finalize(2_000);
        let mut b = MonitorState::new(cfg.clone().without_rules(), 2);
        b.on_retire(1_100, 9, 300, 1_000);
        b.finalize(2_000);
        let mut merged = MonitorState::new(cfg, 0);
        merged.merge_from(&a);
        merged.merge_from(&b);
        merged.evaluate_merged();
        assert_eq!(merged.slots(), whole.slots());
        assert_eq!(merged.windows(), whole.windows());
        assert_eq!(merged.alerts(), whole.alerts());
    }

    #[test]
    fn doc_round_trips_through_json() {
        let mut cfg = config(1_000);
        cfg.rules = vec![SloRule::parse("util>=99%").unwrap()];
        let mut state = MonitorState::new(cfg, 2);
        state.on_arrival(100);
        state.on_item_launch(0, 100, 900);
        state.on_retire(900, 3, 800, 4_000);
        state.record(100, "arrival", || "app0 lenet".into());
        state.finalize(1_000);
        let mut doc = state.to_doc();
        doc.trigger = Some("test trigger".into());
        doc.span_tree = Some("* app app0 [0 .. 900] 900us\n".into());
        let text = nimblock_ser::to_string_pretty(&doc);
        let back: MonitorDoc = nimblock_ser::from_str(&text).expect("doc parses");
        assert_eq!(back, doc);
        assert_eq!(back.windows.len(), 1);
        assert_eq!(back.alerts.len(), 1);
        assert_eq!(back.recorder.len(), 1);
        // Documents written while post-mortems counted dropped span trees
        // carry a `span_dropped` field; they still decode.
        let old = text.replacen("\n}", ",\n  \"span_dropped\": 0\n}", 1);
        assert!(old.contains("span_dropped"));
        assert_eq!(nimblock_ser::from_str::<MonitorDoc>(&old).expect("old doc parses"), doc);
    }

    #[test]
    fn handle_survives_poisoning_for_post_mortems() {
        let handle = MonitorHandle::new(config(1_000), 1);
        let inner = handle.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inner.with(|state| {
                state.on_arrival(100);
                panic!("mid-update");
            })
        }));
        // The poisoned lock still yields the state for the dump.
        let doc = handle.to_doc();
        assert_eq!(doc.windows[0].arrivals, 1);
    }
}
