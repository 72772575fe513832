//! The virtual-time serving front door: streaming ingest, admission
//! control, SLO-class load shedding, and cache-aware routing
//! (DESIGN.md §17).
//!
//! Where [`crate::FaasGateway`] replays a *materialized* invocation batch
//! through the exact hypervisor simulation, the front door is the layer in
//! front of that: an open-loop ingest pipeline that prices millions of
//! invocations in bounded memory. The pipeline per invocation:
//!
//! 1. **Generate** — a lazy [`ArrivalStream`] gap plus Zipf function
//!    popularity; nothing is ever materialized beyond one bounded chunk.
//! 2. **Admit** — the tenant's token bucket and in-flight quota
//!    ([`crate::TenantRegistry`]); rejections never reach the dispatcher.
//! 3. **Route** — a cluster [`Dispatcher`] decision (cache-aware by
//!    default), yielding the predicted queue wait and warm/cold-priced
//!    service cost.
//! 4. **Shed** — two guards wired to the 1/3/9 priority system: the
//!    class-weighted backlog horizon (a batch-class arrival sheds at 1×
//!    the horizon, standard at 3×, latency at 9×) and deadline
//!    infeasibility (predicted response exceeds the class deadline).
//!    Every shed is explained by a six-way attribution decomposition
//!    whose sum exceeds the allowed budget ([`ShedExplanation`]).
//! 5. **Serve** — admitted invocations are buffered per board and drained
//!    chunk-by-chunk through the worker pool: each board is an
//!    independent multi-slot server, so serving parallelizes across
//!    boards yet merges byte-identically in board-index order for every
//!    `--cluster-threads` value (the same plan → execute → merge
//!    contract as `ClusterTestbed`, DESIGN.md §12).
//!
//! Shedding is also what keeps the router's own state bounded: work is
//! only committed while the predicted backlog sits under the weighted
//! horizon, so the dispatcher's outstanding-estimate list can never grow
//! past `horizon × max_weight / min_service` entries, no matter how
//! overloaded the offered stream is.

use std::sync::Arc;

use nimblock_cluster::{pool, DispatchPolicy, Dispatcher};
use nimblock_metrics::{
    AttributionComponents, ClassAttainment, CurvePoint, ServingCounters, ShedExplanation,
    SloCurve,
};
use nimblock_obs::record::{TraceFunction, TraceHeader, TraceRecord, TraceVerdict, TraceWriter};
use nimblock_obs::{QuantileDigest, Registry};
use nimblock_prng::Prng;
use nimblock_ser::impl_json_struct;
use nimblock_sim::{SimDuration, SimTime};
use nimblock_workload::{ArrivalEvent, ArrivalProcess, ZipfSampler};

use crate::registry::FunctionRegistry;
use crate::tenants::{AdmissionVerdict, TenantPolicy, TenantRegistry};
use crate::SloClass;

/// Configuration of a front-door serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Seed for the arrival stream and the function/tenant mix.
    pub seed: u64,
    /// Invocations to offer (streamed, never materialized).
    pub invocations: u64,
    /// The arrival process shaping the offered load.
    pub process: ArrivalProcess,
    /// Number of tenants sharing the cluster.
    pub tenants: usize,
    /// Per-tenant admission policy (rate limit, burst, quota).
    pub tenant_policy: TenantPolicy,
    /// Boards in the cluster.
    pub boards: usize,
    /// Reconfigurable slots per board (the paper's partition count).
    pub slots_per_board: usize,
    /// Worker threads for the per-board serving stage; `0` = auto. The
    /// report is byte-identical for every value.
    pub threads: usize,
    /// Board-selection policy for routing.
    pub policy: DispatchPolicy,
    /// Nominal partial-reconfiguration latency of the device model.
    pub reconfig: SimDuration,
    /// Batch items per invocation are drawn uniformly from `1..=max_items`.
    pub max_items: u32,
    /// Base backlog horizon for shedding; a class sheds when the predicted
    /// queue wait exceeds `horizon × priority_weight` (1/3/9).
    pub shed_horizon: SimDuration,
    /// Admitted invocations buffered before a serving flush — the memory
    /// bound of the ingest loop.
    pub chunk: usize,
}

/// One offered invocation: the output of the generation stage (arrival
/// instant, function index in sorted-name registry order, batch items,
/// tenant). Everything downstream — admission, routing, shedding,
/// serving — is a deterministic function of this sequence and the
/// configuration, which is what makes recorded traces exactly
/// replayable (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferedInvocation {
    /// Arrival instant.
    pub at: SimTime,
    /// Function index, in `FunctionRegistry::names()` (sorted) order.
    pub function: usize,
    /// Batch items of the invocation.
    pub items: u32,
    /// Offering tenant.
    pub tenant: usize,
}

impl FrontDoorConfig {
    /// A front door with steady 0.1/s arrivals (the paper's benchmark mix
    /// runs 0.4 s – 788 s per invocation, so cluster capacity is on the
    /// order of 0.1/s), four tenants with no limits, four boards of three
    /// slots, cache-aware routing, and a 10 s base shed horizon. Virtual
    /// arrival rates cost nothing in wall-clock time — only the ratio to
    /// service capacity matters.
    pub fn new(seed: u64) -> Self {
        FrontDoorConfig {
            seed,
            invocations: 100_000,
            process: ArrivalProcess::parse("steady:0.1").expect("default process parses"),
            tenants: 4,
            tenant_policy: TenantPolicy::default(),
            boards: 4,
            slots_per_board: 3,
            threads: 1,
            policy: DispatchPolicy::CacheAware,
            reconfig: SimDuration::from_millis(80),
            max_items: 4,
            shed_horizon: SimDuration::from_secs(10),
            chunk: 65_536,
        }
    }

    /// Rebuilds a configuration from a recorded trace header. The
    /// inverse of [`FrontDoor::trace_header`]: replaying the recorded
    /// invocations through the resulting config reproduces the recorded
    /// run's report byte-for-byte.
    pub fn from_trace_header(header: &TraceHeader) -> Result<Self, String> {
        let process = ArrivalProcess::parse(&header.process)
            .map_err(|e| format!("trace header arrival process: {e}"))?;
        let policy = DispatchPolicy::parse(&header.policy)
            .ok_or_else(|| format!("trace header has unknown policy '{}'", header.policy))?;
        if header.tenants == 0 || header.boards == 0 || header.slots_per_board == 0 {
            return Err("trace header has a degenerate fleet (zero tenants/boards/slots)".into());
        }
        if header.max_items == 0 || header.chunk == 0 {
            return Err("trace header has zero max_items or chunk".into());
        }
        let max_items = u32::try_from(header.max_items).map_err(|_| {
            format!("trace header max_items {} exceeds {}", header.max_items, u32::MAX)
        })?;
        Ok(FrontDoorConfig {
            seed: header.seed,
            invocations: header.invocations,
            process,
            tenants: header.tenants as usize,
            tenant_policy: TenantPolicy {
                rate_per_sec: header.tenant_rate_per_sec,
                burst: header.tenant_burst,
                quota: header.tenant_quota,
            },
            boards: header.boards as usize,
            slots_per_board: header.slots_per_board as usize,
            threads: header.threads as usize,
            policy,
            reconfig: SimDuration::from_micros(header.reconfig_micros),
            max_items,
            shed_horizon: SimDuration::from_micros(header.shed_horizon_micros),
            chunk: header.chunk as usize,
        })
    }
}

/// Checks that `registry` deploys exactly the trace's function table —
/// same names, same order, same SLO classes — so recorded function
/// indices resolve to the apps they were recorded against.
pub fn verify_trace_functions(
    registry: &FunctionRegistry,
    header: &TraceHeader,
) -> Result<(), String> {
    let names = registry.names();
    if names.len() != header.functions.len() {
        return Err(format!(
            "trace deploys {} function(s), registry has {}",
            header.functions.len(),
            names.len()
        ));
    }
    for (name, function) in names.iter().zip(&header.functions) {
        if *name != function.name {
            return Err(format!(
                "trace function '{}' does not match deployed '{name}'",
                function.name
            ));
        }
        let slo = registry.slo(name).expect("names() lists deployed functions");
        if class_index(slo) as u8 != function.class {
            return Err(format!(
                "trace function '{name}' has class code {}, registry says {}",
                function.class,
                class_index(slo)
            ));
        }
    }
    Ok(())
}

/// Per-tenant outcome row of a front-door run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Tenant index.
    pub tenant: u64,
    /// Invocations the tenant offered.
    pub offered: u64,
    /// Invocations admitted and served.
    pub admitted: u64,
    /// Rejections by the token-bucket rate limit.
    pub rejected_rate: u64,
    /// Rejections by the in-flight quota.
    pub rejected_quota: u64,
    /// Highest concurrent in-flight occupancy the tenant reached — the
    /// quota property tests pin this at or under the quota.
    pub peak_in_flight: u64,
}

impl_json_struct!(TenantOutcome {
    tenant, offered, admitted, rejected_rate, rejected_quota, peak_in_flight,
});

/// Everything a front-door run reports. Serialized as the golden
/// fingerprint, so every field must be a deterministic function of the
/// configuration alone — never of thread scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontDoorReport {
    /// Seed the run was driven by.
    pub seed: u64,
    /// Load multiplier applied to the arrival process.
    pub load_factor: f64,
    /// Exact invocation accounting (conservation holds by construction
    /// and is re-checked by callers).
    pub counters: ServingCounters,
    /// Per-class admission/attainment/quantile rows, strictest class
    /// first.
    pub classes: Vec<ClassAttainment>,
    /// Per-class shed explanations (six-way attribution decompositions).
    pub shed_explanations: Vec<ShedExplanation>,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantOutcome>,
    /// Highest number of admitted invocations buffered at once — the
    /// observable memory bound (always `<=` the configured chunk).
    pub peak_buffered: u64,
    /// Virtual duration of the run, seconds (last arrival or last board
    /// finish, whichever is later).
    pub virtual_secs: f64,
    /// SLO-met invocations per virtual second.
    pub goodput_per_sec: f64,
    /// SLO attainment over admitted invocations (shedding protects this).
    pub attainment: f64,
    /// SLO attainment over *offered* invocations — the monotone axis of
    /// the load curve: sheds and rejections pull it down as load rises.
    pub offered_attainment: f64,
}

impl_json_struct!(FrontDoorReport {
    seed, load_factor, counters, classes, shed_explanations, tenants,
    peak_buffered, virtual_secs, goodput_per_sec, attainment,
    offered_attainment,
});

impl FrontDoorReport {
    /// `true` iff every offered invocation is accounted exactly once.
    pub fn conserves(&self) -> bool {
        self.counters.conserves()
    }

    /// `true` iff the run shed load *and* every shed is justified by its
    /// attribution decomposition — the alert the CI `faas` stage requires
    /// under deliberate overload.
    pub fn shed_alert(&self) -> bool {
        self.counters.shed() > 0 && self.shed_explanations.iter().all(ShedExplanation::explains)
    }

    /// Extracts the goodput/SLO-attainment curve point this report
    /// measures at `offered_rate_per_sec`.
    fn curve_point(&self, offered_rate_per_sec: f64) -> CurvePoint {
        CurvePoint {
            load_factor: self.load_factor,
            offered_rate_per_sec,
            counters: self.counters,
            goodput_per_sec: self.goodput_per_sec,
            attainment: self.attainment,
            offered_attainment: self.offered_attainment,
            classes: self.classes.clone(),
        }
    }
}

/// One admitted invocation waiting in the current serving chunk.
#[derive(Debug, Clone, Copy)]
struct ServeItem {
    arrival: SimTime,
    work: SimDuration,
    deadline: SimDuration,
    class_index: usize,
}

/// Per-class serving shard of one board.
struct ClassShard {
    admitted: u64,
    within_slo: u64,
    digest: QuantileDigest,
}

impl ClassShard {
    fn new() -> Self {
        ClassShard { admitted: 0, within_slo: 0, digest: QuantileDigest::detached() }
    }
}

/// One board's multi-slot server state, persisted across chunks.
struct BoardServer {
    slot_free: Vec<SimTime>,
    classes: Vec<ClassShard>,
    last_finish: SimTime,
}

impl BoardServer {
    fn new(slots: usize) -> Self {
        BoardServer {
            slot_free: vec![SimTime::ZERO; slots],
            classes: (0..SloClass::ALL.len()).map(|_| ClassShard::new()).collect(),
            last_finish: SimTime::ZERO,
        }
    }

    /// Serves one chunk of invocations in arrival order: each starts on
    /// the earliest-free slot.
    fn serve(&mut self, items: &[ServeItem]) {
        for item in items {
            let slot = self
                .slot_free
                .iter()
                .enumerate()
                .min_by_key(|(i, free)| (**free, *i))
                .map(|(i, _)| i)
                .expect("boards have at least one slot");
            let start = self.slot_free[slot].max(item.arrival);
            let finish = start + item.work;
            self.slot_free[slot] = finish;
            self.last_finish = self.last_finish.max(finish);
            let response = finish.saturating_since(item.arrival);
            let shard = &mut self.classes[item.class_index];
            shard.admitted += 1;
            if response <= item.deadline {
                shard.within_slo += 1;
            }
            shard.digest.observe(response.as_micros());
        }
    }
}

/// The serving front door: a function registry behind streaming ingest,
/// admission control, shedding, and cache-aware routing.
///
/// # Example
///
/// ```
/// use nimblock_faas::{FrontDoor, FrontDoorConfig, FunctionRegistry};
///
/// let mut config = FrontDoorConfig::new(7);
/// config.invocations = 5_000;
/// let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run();
/// assert!(report.conserves());
/// assert_eq!(report.counters.offered, 5_000);
/// ```
#[derive(Debug, Clone)]
pub struct FrontDoor {
    registry: FunctionRegistry,
    config: FrontDoorConfig,
    metrics: Option<Registry>,
}

impl FrontDoor {
    /// Creates a front door over `registry` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty or the configuration is degenerate
    /// (zero tenants, boards, slots, items, or chunk).
    pub fn new(registry: FunctionRegistry, config: FrontDoorConfig) -> Self {
        assert!(!registry.is_empty(), "the front door needs deployed functions");
        assert!(config.slots_per_board > 0, "boards need at least one slot");
        assert!(config.max_items > 0, "invocations need at least one item");
        assert!(config.chunk > 0, "the serving chunk must hold at least one invocation");
        FrontDoor { registry, config, metrics: None }
    }

    /// Attaches an observability registry; each [`FrontDoor::run`] adds
    /// its admission counters and per-class response digests to it.
    pub fn with_metrics(mut self, registry: Registry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Runs the configured serving pipeline at nominal load.
    pub fn run(&self) -> FrontDoorReport {
        self.run_at_load(1.0)
    }

    /// Runs the pipeline with the arrival rate scaled by `load_factor`.
    pub fn run_at_load(&self, load_factor: f64) -> FrontDoorReport {
        self.serve(load_factor, self.generated(load_factor), None)
    }

    /// Runs the pipeline while recording every offered invocation into a
    /// compact trace (DESIGN.md §18). Returns the report and the finished
    /// trace bytes; the trace embeds the report's JSON, so `analyze plan`
    /// can later require its exact replay to be byte-identical.
    pub fn run_recorded(&self, load_factor: f64) -> (FrontDoorReport, Vec<u8>) {
        let mut writer = TraceWriter::new(&self.trace_header(load_factor));
        let report = self.serve(load_factor, self.generated(load_factor), Some(&mut writer));
        let json = nimblock_ser::to_string_pretty(&report);
        (report, writer.finish(Some(&json)))
    }

    /// Replays an explicit offered sequence (typically decoded from a
    /// recorded trace) through this front door's configuration. With the
    /// recorded configuration the result is byte-identical to the
    /// recorded run; with a counterfactual configuration (different
    /// fleet, policy, or reconfiguration latency) it answers "what would
    /// that day have looked like on this cluster".
    pub fn replay(
        &self,
        load_factor: f64,
        offered: impl Iterator<Item = OfferedInvocation>,
    ) -> FrontDoorReport {
        self.serve(load_factor, offered, None)
    }

    /// The trace header describing this front door's configuration and
    /// function table.
    pub fn trace_header(&self, load_factor: f64) -> TraceHeader {
        let config = &self.config;
        TraceHeader {
            kind: nimblock_obs::record::KIND_SERVING,
            seed: config.seed,
            load_factor,
            invocations: config.invocations,
            process: config.process.spec(),
            tenants: config.tenants as u64,
            tenant_rate_per_sec: config.tenant_policy.rate_per_sec,
            tenant_burst: config.tenant_policy.burst,
            tenant_quota: config.tenant_policy.quota,
            boards: config.boards as u64,
            slots_per_board: config.slots_per_board as u64,
            threads: config.threads as u64,
            policy: config.policy.name().to_owned(),
            reconfig_micros: config.reconfig.as_micros(),
            max_items: u64::from(config.max_items),
            shed_horizon_micros: config.shed_horizon.as_micros(),
            chunk: config.chunk as u64,
            functions: self
                .registry
                .names()
                .iter()
                .map(|name| TraceFunction {
                    name: (*name).to_owned(),
                    class: class_index(
                        self.registry.slo(name).expect("names() lists deployed functions"),
                    ) as u8,
                })
                .collect(),
        }
    }

    /// The generation stage as a lazy iterator: arrival-stream gaps, Zipf
    /// function popularity, uniform batch items and tenants. O(1) state.
    fn generated(&self, load_factor: f64) -> impl Iterator<Item = OfferedInvocation> {
        let config = self.config;
        let sampler = ZipfSampler::new(self.registry.len(), 1.0);
        let mut stream = config.process.stream(config.seed, load_factor);
        let mut rng = Prng::seed_from_u64(config.seed ^ 0xFAA5_C0DE);
        let mut now = SimTime::ZERO;
        (0..config.invocations).map(move |_| {
            now += stream.next_gap();
            let function = sampler.sample(&mut rng);
            let items = rng.gen_range(1..=config.max_items);
            let tenant = rng.gen_range(0..config.tenants);
            OfferedInvocation { at: now, function, items, tenant }
        })
    }

    /// The shared serving loop behind [`FrontDoor::run_at_load`],
    /// [`FrontDoor::run_recorded`], and [`FrontDoor::replay`]: admission,
    /// routing, shedding, and chunked board serving over any offered
    /// sequence. One code path, so recorded traces replay through exactly
    /// the logic that produced them.
    fn serve(
        &self,
        load_factor: f64,
        offered: impl Iterator<Item = OfferedInvocation>,
        mut recorder: Option<&mut TraceWriter>,
    ) -> FrontDoorReport {
        let config = &self.config;
        let functions: Vec<(Arc<nimblock_app::AppSpec>, SloClass)> = self
            .registry
            .names()
            .iter()
            .map(|name| {
                let function = self
                    .registry
                    .get(name)
                    .expect("names() lists deployed functions");
                (Arc::clone(&function.app), function.slo)
            })
            .collect();
        let mut dispatcher = Dispatcher::new(config.policy, config.boards, config.reconfig);
        let mut tenants = TenantRegistry::new(config.tenants, config.tenant_policy);
        let mut counters = ServingCounters::default();
        let mut class_shed = vec![0u64; SloClass::ALL.len()];
        let mut explanations: Vec<ShedExplanation> = SloClass::ALL
            .iter()
            .map(|class| ShedExplanation {
                class_name: class.name().to_string(),
                ..ShedExplanation::default()
            })
            .collect();
        let mut boards: Vec<BoardServer> = (0..config.boards)
            .map(|_| BoardServer::new(config.slots_per_board))
            .collect();
        let mut chunks: Vec<Vec<ServeItem>> = (0..config.boards).map(|_| Vec::new()).collect();
        let mut buffered = 0usize;
        let mut peak_buffered = 0usize;
        let threads = pool::resolve_threads(config.threads);

        let mut now = SimTime::ZERO;
        for invocation in offered {
            now = invocation.at;
            let OfferedInvocation { function: function_index, items, tenant, .. } = invocation;
            counters.offered += 1;
            match tenants.judge(tenant, now) {
                verdict @ (AdmissionVerdict::RejectRate | AdmissionVerdict::RejectQuota) => {
                    if verdict == AdmissionVerdict::RejectRate {
                        counters.rejected_rate += 1;
                    } else {
                        counters.rejected_quota += 1;
                    }
                    if let Some(writer) = recorder.as_deref_mut() {
                        writer.push(&TraceRecord {
                            arrival_micros: now.as_micros(),
                            function: function_index as u32,
                            items,
                            tenant: tenant as u32,
                            verdict: if verdict == AdmissionVerdict::RejectRate {
                                TraceVerdict::RejectRate
                            } else {
                                TraceVerdict::RejectQuota
                            },
                            ..TraceRecord::default()
                        });
                    }
                    continue;
                }
                AdmissionVerdict::Admit => {}
            }
            let (app, slo) = &functions[function_index];
            let class_index = class_index(*slo);
            let event = ArrivalEvent::new(Arc::clone(app), items, slo.priority(), now);
            let decision = dispatcher.decide(&event);
            let predicted = decision.queue_wait + decision.work;
            let cold_latency = app.single_slot_latency(items, config.reconfig);
            let deadline =
                SimDuration::from_secs_f64(slo.deadline_factor() * cold_latency.as_secs_f64());
            let horizon = config
                .shed_horizon
                .saturating_mul(u64::from(slo.priority().weight()));
            let over_backlog = decision.queue_wait > horizon;
            let over_deadline = predicted > deadline;
            if over_backlog || over_deadline {
                let reconfig_part = if decision.warm {
                    SimDuration::ZERO
                } else {
                    cold_latency - app.single_slot_latency(items, SimDuration::ZERO)
                };
                // The backlog guard is checked first: it is the coarse
                // class-weighted gate, and its budget (the weighted
                // horizon) is what the shed exceeded.
                let (budget, reason_counter) = if over_backlog {
                    (horizon, &mut counters.shed_backlog)
                } else {
                    (deadline, &mut counters.shed_deadline)
                };
                *reason_counter += 1;
                class_shed[class_index] += 1;
                explanations[class_index] = std::mem::take(&mut explanations[class_index])
                    .merged(ShedExplanation {
                        class_name: slo.name().to_string(),
                        sheds: 1,
                        components: AttributionComponents {
                            queue_wait: decision.queue_wait.as_micros(),
                            reconfig: reconfig_part.as_micros(),
                            compute: decision.work.as_micros() - reconfig_part.as_micros(),
                            ..AttributionComponents::default()
                        },
                        budget_micros: budget.as_micros(),
                    });
                if let Some(writer) = recorder.as_deref_mut() {
                    writer.push(&TraceRecord {
                        arrival_micros: now.as_micros(),
                        function: function_index as u32,
                        items,
                        tenant: tenant as u32,
                        verdict: if over_backlog {
                            TraceVerdict::ShedBacklog
                        } else {
                            TraceVerdict::ShedDeadline
                        },
                        warm: decision.warm,
                        queue_wait_micros: decision.queue_wait.as_micros(),
                        work_micros: decision.work.as_micros(),
                        reconfig_micros: reconfig_part.as_micros(),
                        ..TraceRecord::default()
                    });
                }
                continue;
            }
            dispatcher.commit(&event, &decision);
            tenants.record_admission(tenant, now + predicted);
            counters.admitted += 1;
            if let Some(writer) = recorder.as_deref_mut() {
                writer.push(&TraceRecord {
                    arrival_micros: now.as_micros(),
                    function: function_index as u32,
                    items,
                    tenant: tenant as u32,
                    verdict: TraceVerdict::Admit,
                    warm: decision.warm,
                    board: decision.board as u32,
                    queue_wait_micros: decision.queue_wait.as_micros(),
                    work_micros: decision.work.as_micros(),
                    ..TraceRecord::default()
                });
            }
            chunks[decision.board].push(ServeItem {
                arrival: now,
                work: decision.work,
                deadline,
                class_index,
            });
            buffered += 1;
            peak_buffered = peak_buffered.max(buffered);
            if buffered >= config.chunk {
                flush(&mut boards, &mut chunks, threads);
                buffered = 0;
            }
        }
        if buffered > 0 {
            flush(&mut boards, &mut chunks, threads);
        }

        debug_assert!(counters.conserves(), "conservation is structural");
        self.assemble_report(load_factor, counters, class_shed, explanations, boards, tenants, peak_buffered, now)
    }

    /// Sweeps the load multipliers (ascending) and measures one curve
    /// point per factor, all from the same seed.
    pub fn run_curve(&self, load_factors: &[f64]) -> SloCurve {
        SloCurve {
            points: load_factors
                .iter()
                .map(|&factor| {
                    self.run_at_load(factor)
                        .curve_point(self.config.process.rate_per_sec() * factor)
                })
                .collect(),
        }
    }

    /// Folds router and server state into the final report and exports
    /// metrics when a registry is attached.
    #[allow(clippy::too_many_arguments)]
    fn assemble_report(
        &self,
        load_factor: f64,
        counters: ServingCounters,
        class_shed: Vec<u64>,
        explanations: Vec<ShedExplanation>,
        boards: Vec<BoardServer>,
        tenants: TenantRegistry,
        peak_buffered: usize,
        last_arrival: SimTime,
    ) -> FrontDoorReport {
        // Merge per-board shards in board-index order (DESIGN.md §12).
        let mut classes = Vec::with_capacity(SloClass::ALL.len());
        let mut total_within = 0u64;
        let mut total_admitted = 0u64;
        let mut virtual_end = last_arrival;
        for board in &boards {
            virtual_end = virtual_end.max(board.last_finish);
        }
        for (index, class) in SloClass::ALL.iter().enumerate() {
            let digest = QuantileDigest::detached();
            let mut admitted = 0u64;
            let mut within = 0u64;
            for board in &boards {
                let shard = &board.classes[index];
                admitted += shard.admitted;
                within += shard.within_slo;
                digest.merge_from(&shard.digest);
            }
            total_admitted += admitted;
            total_within += within;
            if let Some(registry) = &self.metrics {
                registry
                    .digest(
                        &format!("faas_response_micros_{}", class.name()),
                        "Front-door response times by SLO class",
                    )
                    .merge_from(&digest);
            }
            classes.push(ClassAttainment {
                class_name: class.name().to_string(),
                admitted,
                within_slo: within,
                shed: class_shed[index],
                p50_response_micros: digest.quantile(0.50),
                p95_response_micros: digest.quantile(0.95),
                p99_response_micros: digest.quantile(0.99),
            });
        }
        if let Some(registry) = &self.metrics {
            for (name, help, value) in [
                ("faas_offered_total", "Invocations offered to the front door", counters.offered),
                ("faas_admitted_total", "Invocations admitted and served", counters.admitted),
                ("faas_shed_backlog_total", "Sheds by the weighted backlog horizon", counters.shed_backlog),
                ("faas_shed_deadline_total", "Sheds by deadline infeasibility", counters.shed_deadline),
                ("faas_rejected_rate_total", "Tenant rate-limit rejections", counters.rejected_rate),
                ("faas_rejected_quota_total", "Tenant quota rejections", counters.rejected_quota),
            ] {
                registry.counter(name, help).add(value);
            }
        }
        let virtual_secs = virtual_end.as_secs_f64();
        let attainment = if total_admitted == 0 {
            1.0
        } else {
            total_within as f64 / total_admitted as f64
        };
        let offered_attainment = if counters.offered == 0 {
            1.0
        } else {
            total_within as f64 / counters.offered as f64
        };
        let goodput_per_sec = if virtual_secs > 0.0 {
            total_within as f64 / virtual_secs
        } else {
            0.0
        };
        FrontDoorReport {
            seed: self.config.seed,
            load_factor,
            counters,
            classes,
            shed_explanations: explanations,
            tenants: tenants
                .outcomes()
                .into_iter()
                .enumerate()
                .map(|(index, (offered, admitted, rejected_rate, rejected_quota, peak))| {
                    TenantOutcome {
                        tenant: index as u64,
                        offered,
                        admitted,
                        rejected_rate,
                        rejected_quota,
                        peak_in_flight: peak,
                    }
                })
                .collect(),
            peak_buffered: peak_buffered as u64,
            virtual_secs,
            goodput_per_sec,
            attainment,
            offered_attainment,
        }
    }
}

/// Index of a class in [`SloClass::ALL`] order.
fn class_index(class: SloClass) -> usize {
    match class {
        SloClass::Latency => 0,
        SloClass::Standard => 1,
        SloClass::Batch => 2,
    }
}

/// Drains every board's chunk through the worker pool and stores the
/// updated server states back in board-index order.
fn flush(boards: &mut Vec<BoardServer>, chunks: &mut [Vec<ServeItem>], threads: usize) {
    let jobs: Vec<_> = std::mem::take(boards)
        .into_iter()
        .zip(chunks.iter_mut().map(std::mem::take))
        .map(|(mut board, items)| {
            move || {
                board.serve(&items);
                board
            }
        })
        .collect();
    *boards = pool::run_indexed(threads, jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overload_config(seed: u64) -> FrontDoorConfig {
        let mut config = FrontDoorConfig::new(seed);
        config.invocations = 20_000;
        config.process = ArrivalProcess::parse("bursty:2000").expect("parses");
        config.shed_horizon = SimDuration::from_millis(200);
        config.tenant_policy = TenantPolicy { rate_per_sec: 300.0, burst: 32, quota: 64 };
        config
    }

    /// Roughly half the cluster's capacity: most invocations are admitted
    /// and actually flow through the per-board serving stage.
    fn moderate_config(seed: u64) -> FrontDoorConfig {
        let mut config = FrontDoorConfig::new(seed);
        config.invocations = 20_000;
        config.process = ArrivalProcess::parse("steady:0.05").expect("parses");
        config.shed_horizon = SimDuration::from_secs(60);
        config
    }

    #[test]
    fn conservation_holds_under_overload() {
        let report =
            FrontDoor::new(FunctionRegistry::benchmark_suite(), overload_config(11)).run();
        assert!(report.conserves());
        assert_eq!(report.counters.offered, 20_000);
        assert!(report.counters.shed() > 0, "overload must shed");
        assert!(report.counters.rejected() > 0, "rate limit must reject");
        assert!(report.shed_alert());
    }

    #[test]
    fn every_shed_is_explained() {
        let report =
            FrontDoor::new(FunctionRegistry::benchmark_suite(), overload_config(13)).run();
        let explained: u64 = report.shed_explanations.iter().map(|e| e.sheds).sum();
        assert_eq!(explained, report.counters.shed());
        for explanation in &report.shed_explanations {
            assert!(explanation.explains(), "{}", explanation.class_name);
        }
    }

    #[test]
    fn reports_are_byte_identical_across_threads() {
        let make = |threads| {
            let mut config = moderate_config(17);
            config.chunk = 256; // force many flush cycles through the pool
            config.threads = threads;
            FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run()
        };
        let oracle = nimblock_ser::to_string_pretty(&make(1));
        for threads in [2, 4, 8] {
            assert_eq!(
                oracle,
                nimblock_ser::to_string_pretty(&make(threads)),
                "threads={threads} must merge byte-identically"
            );
        }
    }

    #[test]
    fn memory_stays_bounded_by_the_chunk() {
        let mut config = moderate_config(19);
        config.chunk = 512;
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run();
        assert!(report.peak_buffered <= 512, "peak {}", report.peak_buffered);
        assert!(report.counters.admitted > 512, "chunking must actually cycle");
    }

    #[test]
    fn backlog_budgets_follow_the_139_weights() {
        // A horizon tight enough that the backlog gate fires long before
        // any deadline does: every shed is a backlog shed, and each one
        // contributes exactly `horizon × priority_weight` to its class's
        // budget — 9× for latency, 3× for standard, 1× for batch.
        let mut config = overload_config(11);
        config.shed_horizon = SimDuration::from_millis(30);
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run();
        assert_eq!(report.counters.shed_deadline, 0, "backlog gate must dominate");
        assert!(report.counters.shed_backlog > 0);
        for (explanation, weight) in report.shed_explanations.iter().zip([9u64, 3, 1]) {
            assert_eq!(
                explanation.budget_micros,
                explanation.sheds * 30_000 * weight,
                "{} budget must be sheds × horizon × weight",
                explanation.class_name
            );
        }
    }

    #[test]
    fn shed_guards_follow_their_knobs() {
        // A huge horizon disables the backlog gate entirely; deadline
        // infeasibility becomes the only shed reason.
        let mut loose = overload_config(11);
        loose.shed_horizon = SimDuration::from_secs(100_000);
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), loose).run();
        assert_eq!(report.counters.shed_backlog, 0);
        assert!(report.counters.shed_deadline > 0);
        assert!(report.conserves());
    }

    #[test]
    fn quotas_are_never_exceeded() {
        let mut config = overload_config(29);
        config.tenant_policy = TenantPolicy { rate_per_sec: 0.0, burst: 1, quota: 2 };
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run();
        for tenant in &report.tenants {
            assert!(
                tenant.peak_in_flight <= 2,
                "tenant {} peaked at {}",
                tenant.tenant,
                tenant.peak_in_flight
            );
        }
        assert!(report.counters.rejected_quota > 0);
    }

    #[test]
    fn curve_attainment_degrades_with_load() {
        let mut config = FrontDoorConfig::new(31);
        config.invocations = 8_000;
        config.process = ArrivalProcess::parse("steady:0.05").expect("parses");
        config.shed_horizon = SimDuration::from_secs(60);
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
        let curve = door.run_curve(&[0.25, 1.0, 4.0, 16.0]);
        assert_eq!(curve.points.len(), 4);
        assert!(
            curve.attainment_monotone(0.02),
            "offered attainment must not rise with load: {:?}",
            curve
                .points
                .iter()
                .map(|p| p.offered_attainment)
                .collect::<Vec<_>>()
        );
        let first = &curve.points[0];
        let last = &curve.points[curve.points.len() - 1];
        assert!(
            first.offered_attainment > last.offered_attainment,
            "load must hurt offered attainment ({} vs {})",
            first.offered_attainment,
            last.offered_attainment
        );
        for point in &curve.points {
            assert!(point.counters.conserves());
        }
    }

    #[test]
    fn metrics_registry_receives_counters_and_digests() {
        let registry = Registry::new();
        let mut config = overload_config(37);
        config.invocations = 5_000;
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config)
            .with_metrics(registry.clone())
            .run();
        let text = registry.render_prometheus();
        nimblock_obs::validate_prometheus(&text).expect("exposition stays valid");
        assert!(text.contains("faas_offered_total"));
        assert!(text.contains(&format!("faas_offered_total {}", report.counters.offered)));
        assert!(text.contains("faas_response_micros_latency"));
    }

    #[test]
    fn report_round_trips_json() {
        let mut config = overload_config(41);
        config.invocations = 2_000;
        let report = FrontDoor::new(FunctionRegistry::benchmark_suite(), config).run();
        let json = nimblock_ser::to_string_pretty(&report);
        let back: FrontDoorReport = nimblock_ser::from_str(&json).expect("round-trips");
        assert_eq!(back, report);
    }

    #[test]
    #[should_panic(expected = "deployed functions")]
    fn empty_registry_is_rejected() {
        let _ = FrontDoor::new(FunctionRegistry::new(), FrontDoorConfig::new(1));
    }

    #[test]
    fn recording_changes_nothing_and_replay_is_byte_identical() {
        let mut config = overload_config(43);
        config.invocations = 5_000;
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
        let plain = door.run();
        let (recorded, bytes) = door.run_recorded(1.0);
        assert_eq!(
            nimblock_ser::to_string_pretty(&plain),
            nimblock_ser::to_string_pretty(&recorded),
            "recording must not perturb the run"
        );
        let reader = nimblock_obs::TraceReader::parse(&bytes).expect("trace parses");
        assert_eq!(reader.summary().records, 5_000);
        assert_eq!(reader.summary().admitted, recorded.counters.admitted);
        assert_eq!(
            reader.report_json(),
            Some(nimblock_ser::to_string_pretty(&recorded).as_str())
        );
        // Replaying the recorded arrivals through the recorded config
        // reproduces the report byte-for-byte.
        let header = reader.header();
        let replay_config =
            FrontDoorConfig::from_trace_header(header).expect("header converts");
        assert_eq!(replay_config, config);
        verify_trace_functions(&FunctionRegistry::benchmark_suite(), header)
            .expect("benchmark suite matches its own trace");
        let offered = reader.records().map(|record| {
            let record = record.expect("records decode");
            OfferedInvocation {
                at: SimTime::from_micros(record.arrival_micros),
                function: record.function as usize,
                items: record.items,
                tenant: record.tenant as usize,
            }
        });
        let replayed = FrontDoor::new(FunctionRegistry::benchmark_suite(), replay_config)
            .replay(header.load_factor, offered);
        assert_eq!(
            nimblock_ser::to_string_pretty(&replayed),
            nimblock_ser::to_string_pretty(&recorded),
            "exact replay must be byte-identical"
        );
    }

    #[test]
    fn counterfactual_replay_changes_capacity_not_traffic() {
        let mut config = overload_config(47);
        config.invocations = 4_000;
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), config);
        let (_, bytes) = door.run_recorded(1.0);
        let reader = nimblock_obs::TraceReader::parse(&bytes).expect("parses");
        let offered: Vec<OfferedInvocation> = reader
            .records()
            .map(|record| {
                let record = record.expect("decodes");
                OfferedInvocation {
                    at: SimTime::from_micros(record.arrival_micros),
                    function: record.function as usize,
                    items: record.items,
                    tenant: record.tenant as usize,
                }
            })
            .collect();
        let mut bigger = FrontDoorConfig::from_trace_header(reader.header()).expect("converts");
        bigger.boards *= 4;
        let base = FrontDoor::new(FunctionRegistry::benchmark_suite(), config)
            .replay(1.0, offered.iter().copied());
        let scaled = FrontDoor::new(FunctionRegistry::benchmark_suite(), bigger)
            .replay(1.0, offered.iter().copied());
        assert_eq!(scaled.counters.offered, base.counters.offered, "same traffic");
        assert!(
            scaled.counters.shed() <= base.counters.shed(),
            "4x the boards must not shed more ({} vs {})",
            scaled.counters.shed(),
            base.counters.shed()
        );
    }

    #[test]
    fn trace_header_max_items_past_u32_is_an_error() {
        let door = FrontDoor::new(FunctionRegistry::benchmark_suite(), FrontDoorConfig::new(3));
        let mut header = door.trace_header(1.0);
        header.max_items = u64::from(u32::MAX);
        let config = FrontDoorConfig::from_trace_header(&header).expect("u32::MAX fits");
        assert_eq!(config.max_items, u32::MAX);
        // 2^32 used to truncate to zero items and panic in `FrontDoor::new`.
        for max_items in [0, 1 << 32, u64::MAX] {
            header.max_items = max_items;
            let err = FrontDoorConfig::from_trace_header(&header).unwrap_err();
            assert!(err.contains("max_items"), "{max_items}: {err}");
        }
    }
}
