//! PREMA-style token accumulation (paper §4.1, Algorithm 1).
//!
//! Applications accumulate tokens proportional to their priority and their
//! normalized performance degradation. The *threshold* is the maximum token
//! count in the pending queue rounded down to the nearest priority level;
//! applications at or above the threshold are scheduling *candidates*.
//!
//! A decision reads tokens only through their *level* — the count floored
//! to a priority weight, 1, 3 or 9 — and tokens only grow, so an
//! application's level rises at most twice in its life. The bank therefore
//! keeps levels rather than counts: it computes the instants of an
//! application's rises once, at admission, holds them in a min-heap per
//! target level, and applies them when the clock passes them. The threshold
//! then comes from per-level populations and the candidate pool from a
//! per-level list kept in `(candidate_since, id)` order, so a decision
//! costs O(log n) plus the candidates it reads instead of a walk and a sort
//! of the whole bank. Lists are sorted `Vec`s: a live set is tens of
//! applications, and they change only at admissions, retirements, rises
//! and first stamps, while every decision reads them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nimblock_app::Priority;
use nimblock_sim::SimTime;

use crate::{AppId, AppRuntime, SchedView};

/// The scheduling-interval length used as the token-accumulation epoch
/// (the paper's 400 ms slot-reallocation interval, §5.1).
const EPOCH_SECS: f64 = 0.4;

/// The priority levels a token count floors to, lowest first. Admission
/// tokens equal a priority weight, so every live count floors to one of
/// these.
const LEVELS: [Priority; 3] = Priority::ALL;

#[derive(Debug, Clone)]
struct TokenEntry {
    app: AppId,
    weight: f64,
    /// Single-slot latency estimate in seconds; normalizes degradation.
    isolated_secs: f64,
    admitted: SimTime,
    /// Index into [`LEVELS`] of the token count floored at the bank's clock.
    level: usize,
    candidate_since: Option<SimTime>,
}

impl TokenEntry {
    /// Token count at `now`. Integrated over epochs, Algorithm 1's
    /// per-epoch accrual gives the closed form `weight + alpha × weight ×
    /// elapsed² / (2 × isolated × epoch)`, which keeps the count
    /// independent of how often the hypervisor consults the scheduler.
    /// Every f64 step is monotone in `now`, so the count never falls.
    fn tokens_at(&self, alpha: f64, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.admitted).as_secs_f64();
        self.weight
            + alpha * self.weight * elapsed * elapsed / (2.0 * self.isolated_secs * EPOCH_SECS)
    }

    /// The first microsecond at which [`TokenEntry::tokens_at`] reaches
    /// `level`, or `None` past the end of simulated time. Inverting the
    /// closed form in real arithmetic lands within a rounding step of the
    /// answer; the f64 expression itself, checked at the candidate and the
    /// microsecond before it, settles where the floor really rises.
    fn reaches(&self, alpha: f64, level: f64) -> Option<SimTime> {
        let secs = ((level - self.weight) * 2.0 * self.isolated_secs * EPOCH_SECS
            / (alpha * self.weight))
            .sqrt();
        let micros = (secs * 1e6).ceil();
        // A crossing beyond u64 microseconds never comes.
        if micros.is_nan() || micros >= u64::MAX as f64 {
            return None;
        }
        let elapsed = micros as u64;
        let mut at = SimTime::from_micros(self.admitted.as_micros().checked_add(elapsed)?);
        let before = |t: SimTime| SimTime::from_micros(t.as_micros() - 1);
        while at > self.admitted && self.tokens_at(alpha, before(at)) >= level {
            at = before(at);
        }
        while self.tokens_at(alpha, at) < level {
            at = SimTime::from_micros(at.as_micros().checked_add(1)?);
        }
        Some(at)
    }
}

/// Inserts `item` into the sorted list `list`.
fn insert_sorted<T: Ord>(list: &mut Vec<T>, item: T) {
    let at = list.partition_point(|x| *x < item);
    list.insert(at, item);
}

/// Removes `item` from the sorted list `list`, if present.
fn remove_sorted<T: Ord>(list: &mut Vec<T>, item: &T) {
    if let Ok(at) = list.binary_search(item) {
        list.remove(at);
    }
}

/// Token bookkeeping shared by the PREMA and Nimblock policies.
#[derive(Debug, Clone)]
pub(crate) struct TokenBank {
    alpha: f64,
    /// Admitted applications, in id order.
    entries: Vec<TokenEntry>,
    /// The instant levels were last brought up to date.
    clock: SimTime,
    /// Applications at each level that already hold a candidate stamp, in
    /// `(candidate_since, id)` order — the pool order.
    stamped: [Vec<(SimTime, AppId)>; 3],
    /// Applications at each level not stamped yet, in id order.
    unstamped: [Vec<AppId>; 3],
    /// Pending level rises: `rises[i]` holds `(instant, app)` at which
    /// `app` reaches level `i + 1`. Entries of retired applications are
    /// dropped lazily.
    rises: [BinaryHeap<Reverse<(SimTime, AppId)>>; 2],
}

impl TokenBank {
    /// Creates a bank with degradation scale factor `alpha`.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        TokenBank {
            alpha,
            entries: Vec::new(),
            clock: SimTime::ZERO,
            stamped: Default::default(),
            unstamped: Default::default(),
            rises: Default::default(),
        }
    }

    /// Admits an application: initial tokens equal its priority weight
    /// (Algorithm 1, line 3).
    pub(crate) fn admit(&mut self, app: &AppRuntime, view: &SchedView<'_>) {
        let level = LEVELS
            .iter()
            .position(|&p| p == app.priority())
            .expect("every priority is a level");
        let isolated = app
            .spec()
            .single_slot_latency(app.batch_size(), view.reconfig_latency)
            .as_secs_f64()
            .max(1e-6);
        let entry = TokenEntry {
            app: app.id(),
            weight: f64::from(app.priority().weight()),
            isolated_secs: isolated,
            admitted: view.now,
            level,
            candidate_since: None,
        };
        for (to, next) in LEVELS.iter().enumerate().skip(level + 1) {
            if let Some(at) = entry.reaches(self.alpha, f64::from(next.weight())) {
                // At most two rises per live application.
                // nimblock: allow(hot-path-no-alloc)
                self.rises[to - 1].push(Reverse((at, app.id())));
            }
        }
        match self.position(app.id()) {
            Ok(at) => self.entries[at] = entry,
            // Ids arrive in order, so this is almost always a push.
            Err(at) => self.entries.insert(at, entry),
        }
        insert_sorted(&mut self.unstamped[level], app.id());
    }

    /// Where `app`'s entry is, or would be, in `entries`.
    fn position(&self, app: AppId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&app, |e| e.app)
    }

    #[cfg(test)]
    fn entry(&self, app: AppId) -> Option<&TokenEntry> {
        self.position(app).ok().map(|at| &self.entries[at])
    }

    /// Forgets a retired application.
    pub(crate) fn remove(&mut self, app: AppId) {
        let Ok(at) = self.position(app) else {
            return;
        };
        let entry = self.entries.remove(at);
        match entry.candidate_since {
            Some(since) => remove_sorted(&mut self.stamped[entry.level], &(since, app)),
            None => remove_sorted(&mut self.unstamped[entry.level], &app),
        }
    }

    /// Brings every level up to `now`: applies each pending rise at or
    /// before it (Algorithm 1, line 6, through the closed form of
    /// [`TokenEntry::tokens_at`]). Rises into level 3 go first; a rise
    /// into 9 always comes later than the same application's rise into 3.
    pub(crate) fn accumulate(&mut self, now: SimTime) {
        self.clock = now;
        for from in 0..self.rises.len() {
            while let Some(&Reverse((at, app))) = self.rises[from].peek() {
                if at > now {
                    break;
                }
                self.rises[from].pop();
                let Ok(at) = self.position(app) else {
                    continue;
                };
                let entry = &mut self.entries[at];
                let to = from + 1;
                let was = std::mem::replace(&mut entry.level, to);
                debug_assert!(was < to, "levels only rise");
                match entry.candidate_since {
                    Some(since) => {
                        remove_sorted(&mut self.stamped[was], &(since, app));
                        insert_sorted(&mut self.stamped[to], (since, app));
                    }
                    None => {
                        remove_sorted(&mut self.unstamped[was], &app);
                        insert_sorted(&mut self.unstamped[to], app);
                    }
                }
            }
        }
    }

    /// The highest occupied level, if the bank is not empty.
    fn top_level(&self) -> Option<usize> {
        (0..LEVELS.len())
            .rev()
            .find(|&i| !self.stamped[i].is_empty() || !self.unstamped[i].is_empty())
    }

    /// Returns the candidate threshold: the maximum token count floored to
    /// the nearest priority level (Algorithm 1, line 8).
    #[cfg(test)]
    pub(crate) fn threshold(&self) -> f64 {
        self.top_level()
            .map_or(0.0, |i| f64::from(LEVELS[i].weight()))
    }

    /// Fills `out` with the first `limit` applications of the candidate
    /// pool — those whose tokens meet the threshold — ordered oldest
    /// candidate first (entry into the pool, then id), and returns the size
    /// of the whole pool. Newly qualifying applications are stamped with
    /// `now`. Writes into the caller's buffer so steady-state decisions
    /// allocate nothing.
    pub(crate) fn candidates_into(
        &mut self,
        now: SimTime,
        limit: usize,
        out: &mut Vec<AppId>,
    ) -> usize {
        out.clear();
        let Some(top) = self.top_level() else {
            return 0;
        };
        if !self.unstamped[top].is_empty() {
            let mut unstamped = std::mem::take(&mut self.unstamped[top]);
            for app in unstamped.drain(..) {
                if let Ok(at) = self.position(app) {
                    self.entries[at].candidate_since = Some(now);
                }
                insert_sorted(&mut self.stamped[top], (now, app));
            }
            // Hand the emptied list back to keep its capacity.
            self.unstamped[top] = unstamped;
        }
        let pool = &self.stamped[top];
        out.extend(pool.iter().take(limit).map(|&(_, id)| id));
        pool.len()
    }

    /// Returns the earliest instant after the last [`TokenBank::accumulate`]
    /// at which the candidate pool can change without an admission or a
    /// retirement: the first pending rise into a level at or above the
    /// threshold. A rise into a lower level changes no candidacy. `None`
    /// when no such rise is pending.
    pub(crate) fn next_change(&mut self) -> Option<SimTime> {
        let top = self.top_level()?;
        let mut next: Option<SimTime> = None;
        for from in top.saturating_sub(1)..self.rises.len() {
            while let Some(&Reverse((at, app))) = self.rises[from].peek() {
                if self.position(app).is_ok() {
                    next = Some(next.map_or(at, |n| n.min(at)));
                    break;
                }
                self.rises[from].pop();
            }
        }
        next
    }

    /// Returns the highest token count in the bank at the last
    /// [`TokenBank::accumulate`] (zero when empty) — the raw value the
    /// candidate [`TokenBank::threshold`] is floored from. Exposed as the
    /// `sched_max_tokens_milli` telemetry gauge. Every count below the top
    /// level is under that level's weight, so only the top level is read;
    /// policies still compute it only when a registry is attached.
    pub(crate) fn max_tokens(&self) -> f64 {
        let Some(top) = self.top_level() else {
            return 0.0;
        };
        self.entries
            .iter()
            .filter(|e| e.level == top)
            .map(|e| e.tokens_at(self.alpha, self.clock))
            .fold(0.0, f64::max)
    }

    /// Returns the candidate pool as an owned list; see
    /// [`TokenBank::candidates_into`].
    #[cfg(test)]
    pub(crate) fn candidates(&mut self, now: SimTime) -> Vec<AppId> {
        let mut out = Vec::new();
        self.candidates_into(now, usize::MAX, &mut out);
        out
    }

    /// Returns the token count of `app` at the last accumulation, if
    /// admitted.
    #[cfg(test)]
    pub(crate) fn tokens(&self, app: AppId) -> Option<f64> {
        self.entry(app).map(|e| e.tokens_at(self.alpha, self.clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::SlotBinding;
    use nimblock_app::benchmarks;
    use nimblock_sim::SimDuration;
    use std::sync::Arc;

    fn make_app(raw: u64, priority: Priority, batch: u32) -> AppRuntime {
        let spec = Arc::new(benchmarks::lenet());
        let n = spec.graph().task_count();
        AppRuntime::new(
            AppId::new(raw),
            raw as usize,
            spec,
            batch,
            priority,
            SimTime::ZERO,
            (0..n as u64).map(nimblock_fpga::BitstreamId::new).collect(),
        )
    }

    fn view_at<'a>(
        now: SimTime,
        apps: &'a crate::AppArena,
        slots: &'a [SlotBinding],
    ) -> SchedView<'a> {
        SchedView {
            now,
            apps,
            slots,
            reconfig_latency: SimDuration::from_millis(80),
            interconnect: nimblock_fpga::Interconnect::zcu106_default(),
        }
    }

    /// The first instant `app` reaches `level`, as the bank computes it.
    fn crossing(bank: &TokenBank, app: AppId, level: u32) -> SimTime {
        bank.entry(app)
            .expect("admitted")
            .reaches(bank.alpha, f64::from(level))
            .expect("crossing within simulated time")
    }

    fn micro_before(t: SimTime) -> SimTime {
        SimTime::from_micros(t.as_micros() - 1)
    }

    #[test]
    fn initial_tokens_equal_priority_weight() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let app = make_app(0, Priority::High, 2);
        bank.admit(&app, &view_at(SimTime::ZERO, &apps, &[]));
        assert_eq!(bank.tokens(app.id()), Some(9.0));
    }

    #[test]
    fn tokens_grow_faster_for_higher_priority() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let low = make_app(0, Priority::Low, 2);
        let high = make_app(1, Priority::High, 2);
        bank.admit(&low, &view);
        bank.admit(&high, &view);
        bank.accumulate(SimTime::from_secs(10));
        let low_gain = bank.tokens(low.id()).unwrap() - 1.0;
        let high_gain = bank.tokens(high.id()).unwrap() - 9.0;
        assert!((high_gain / low_gain - 9.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_apps_degrade_faster() {
        // Same priority, smaller batch => smaller isolated latency => faster
        // normalized degradation.
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let small = make_app(0, Priority::Low, 1);
        let big = make_app(1, Priority::Low, 30);
        bank.admit(&small, &view);
        bank.admit(&big, &view);
        bank.accumulate(SimTime::from_secs(5));
        assert!(bank.tokens(small.id()).unwrap() > bank.tokens(big.id()).unwrap());
        assert!(crossing(&bank, small.id(), 3) < crossing(&bank, big.id(), 3));
    }

    #[test]
    fn threshold_floors_to_priority_levels() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let medium = make_app(0, Priority::Medium, 2);
        bank.admit(&medium, &view);
        assert_eq!(bank.threshold(), 3.0);
        // Just short of 9 tokens the count still floors to 3.
        let nine = crossing(&bank, medium.id(), 9);
        bank.accumulate(micro_before(nine));
        assert!(bank.tokens(medium.id()).unwrap() > 8.9);
        assert_eq!(bank.threshold(), 3.0);
        bank.accumulate(nine);
        assert_eq!(bank.threshold(), 9.0);
    }

    #[test]
    fn high_priority_arrival_excludes_low_until_it_degrades() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let low = make_app(0, Priority::Low, 2);
        let high = make_app(1, Priority::High, 2);
        bank.admit(&low, &view);
        bank.admit(&high, &view);
        let cands = bank.candidates(SimTime::ZERO);
        assert_eq!(cands, vec![high.id()]);
    }

    #[test]
    fn candidates_ordered_by_pool_entry_time() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let a = make_app(0, Priority::High, 2);
        bank.admit(&a, &view);
        assert_eq!(bank.candidates(SimTime::ZERO), vec![a.id()]);
        // b joins the pool later; a keeps its earlier candidate_since.
        let b = make_app(1, Priority::High, 2);
        bank.admit(&b, &view_at(SimTime::from_secs(1), &apps, &[]));
        let cands = bank.candidates(SimTime::from_secs(1));
        assert_eq!(cands, vec![a.id(), b.id()]);
    }

    #[test]
    fn a_limited_query_returns_the_oldest_candidates_and_the_pool_size() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        for raw in [4, 2, 7] {
            let app = make_app(raw, Priority::Medium, 2);
            bank.admit(&app, &view_at(SimTime::ZERO, &apps, &[]));
        }
        let mut out = Vec::new();
        let pool = bank.candidates_into(SimTime::ZERO, 2, &mut out);
        assert_eq!(pool, 3);
        assert_eq!(
            out,
            vec![AppId::new(2), AppId::new(4)],
            "same stamp: id order"
        );
    }

    #[test]
    fn removed_apps_leave_the_pool() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let a = make_app(0, Priority::Low, 2);
        bank.admit(&a, &view);
        bank.remove(a.id());
        assert!(bank.candidates(SimTime::ZERO).is_empty());
        assert_eq!(bank.threshold(), 0.0);
        assert_eq!(
            bank.next_change(),
            None,
            "a retired app's rises are dropped"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_rejected() {
        TokenBank::new(0.0);
    }

    /// Saturation edge case: after an extreme wait (days of simulated
    /// time), token counts for all three priority weights (1/3/9) stay
    /// finite, keep their strict priority ordering, and the candidate
    /// threshold saturates at the top priority level — it never climbs
    /// past 9 no matter how large the raw maximum grows.
    #[test]
    fn extreme_wait_keeps_tokens_finite_and_threshold_saturated() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let low = make_app(0, Priority::Low, 2);
        let medium = make_app(1, Priority::Medium, 2);
        let high = make_app(2, Priority::High, 2);
        bank.admit(&low, &view);
        bank.admit(&medium, &view);
        bank.admit(&high, &view);
        // ~11.6 simulated days of waiting.
        bank.accumulate(SimTime::from_secs(1_000_000));
        let t_low = bank.tokens(low.id()).unwrap();
        let t_medium = bank.tokens(medium.id()).unwrap();
        let t_high = bank.tokens(high.id()).unwrap();
        for t in [t_low, t_medium, t_high] {
            assert!(t.is_finite(), "token count overflowed to non-finite: {t}");
            assert!(
                t > 9.0,
                "after an extreme wait every app passed the top weight"
            );
        }
        assert!(t_low < t_medium && t_medium < t_high);
        // The floor quantizes to priority levels {0, 1, 3, 9}: the
        // threshold saturates at 9 even though raw maxima are astronomical.
        assert_eq!(bank.threshold(), 9.0);
        assert!(bank.max_tokens() > 1e6);
        // With everyone past the top level, all three are candidates —
        // saturation restores FCFS-among-equals rather than starving Low.
        let cands = bank.candidates(SimTime::from_secs(1_000_000));
        assert_eq!(cands.len(), 3);
        assert_eq!(bank.next_change(), None, "no level above 9");
    }

    /// Boundary behaviour at the exact 1/3/9 weight levels: the threshold
    /// is the level itself from the first microsecond the tokens reach it,
    /// and the level beneath one microsecond earlier.
    #[test]
    fn threshold_boundaries_at_each_priority_weight() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let app = make_app(0, Priority::Low, 2);
        bank.admit(&app, &view);
        assert_eq!(bank.threshold(), 1.0);
        for (level, below) in [(3, 1.0), (9, 3.0)] {
            let at = crossing(&bank, app.id(), level);
            bank.accumulate(micro_before(at));
            assert_eq!(bank.threshold(), below, "one µs before level {level}");
            bank.accumulate(at);
            assert_eq!(bank.threshold(), f64::from(level), "at level {level}");
        }
        bank.accumulate(SimTime::from_secs(1_000_000_000));
        assert_eq!(bank.threshold(), 9.0);
    }

    /// Accumulating "backwards" (a view timestamp earlier than admission,
    /// which a scheduler consulted mid-epoch can produce) saturates to zero
    /// elapsed time instead of underflowing: tokens never drop below the
    /// admission weight.
    #[test]
    fn accumulation_before_admission_saturates_to_weight() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let app = make_app(0, Priority::High, 2);
        bank.admit(&app, &view_at(SimTime::from_secs(100), &apps, &[]));
        bank.accumulate(SimTime::from_secs(50));
        assert_eq!(bank.tokens(app.id()), Some(9.0));
    }

    /// A Low-priority application left waiting long enough crosses the
    /// High level and becomes a candidate alongside a fresh High arrival —
    /// the anti-starvation property the 1/3/9 weights exist to provide.
    #[test]
    fn low_priority_eventually_crosses_the_high_level() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let low = make_app(0, Priority::Low, 2);
        bank.admit(&low, &view);
        // Find the first epoch multiple where Low passes weight 9.
        let mut crossed = None;
        for secs in 1..100_000 {
            bank.accumulate(SimTime::from_secs(secs));
            if bank.tokens(low.id()).unwrap() >= 9.0 {
                crossed = Some(secs);
                break;
            }
        }
        let crossed = crossed.expect("Low never crossed the High level");
        let high = make_app(1, Priority::High, 2);
        bank.admit(&high, &view_at(SimTime::from_secs(crossed), &apps, &[]));
        let cands = bank.candidates(SimTime::from_secs(crossed));
        assert!(
            cands.contains(&low.id()) && cands.contains(&high.id()),
            "both must be candidates once Low degrades past the top weight"
        );
    }

    /// The crossing the bank computes is exactly the first microsecond at
    /// which `floor_weight` of the accumulated f64 count rises: checked
    /// for every weight and every level above it, over a sweep of isolated
    /// latencies from the 1 µs floor to hours, and several α.
    #[test]
    fn computed_crossing_is_the_first_microsecond_the_floor_rises() {
        let mut checked = 0;
        for alpha in [0.05, 0.3, 1.0, 2.5, 17.0] {
            for micros in [1u64, 7, 450, 80_000, 1_234_567, 33_000_000, 7_200_000_000] {
                for priority in Priority::ALL {
                    let admitted = SimTime::from_micros(micros * 3 + 11);
                    let entry = TokenEntry {
                        app: AppId::new(0),
                        weight: f64::from(priority.weight()),
                        isolated_secs: (micros as f64 / 1e6).max(1e-6),
                        admitted,
                        level: 0,
                        candidate_since: None,
                    };
                    for level in LEVELS
                        .iter()
                        .map(|p| p.weight())
                        .filter(|&w| w > priority.weight())
                    {
                        let at = entry.reaches(alpha, f64::from(level)).expect("in range");
                        let floor = |t| Priority::floor_weight(entry.tokens_at(alpha, t));
                        assert!(
                            floor(at) >= level,
                            "α={alpha} iso={micros}µs {priority:?}: floor at the crossing"
                        );
                        assert!(at > admitted, "the floor starts at the weight");
                        assert!(
                            floor(micro_before(at)) < level,
                            "α={alpha} iso={micros}µs {priority:?}: floor one µs earlier"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 5 * 7 * 3);
    }

    #[test]
    fn next_change_reports_only_rises_that_move_the_pool() {
        let mut bank = TokenBank::new(1.0);
        let apps = crate::AppArena::new();
        let view = view_at(SimTime::ZERO, &apps, &[]);
        let low = make_app(0, Priority::Low, 2);
        let medium = make_app(1, Priority::Medium, 30);
        bank.admit(&low, &view);
        bank.admit(&medium, &view);
        let low_to_3 = crossing(&bank, low.id(), 3);
        let low_to_9 = crossing(&bank, low.id(), 9);
        let medium_to_9 = crossing(&bank, medium.id(), 9);
        assert!(low_to_3 < medium_to_9 && low_to_3 < low_to_9);
        // Threshold 3: Low joining it changes the pool.
        assert_eq!(bank.next_change(), Some(low_to_3));
        let high = make_app(2, Priority::High, 2);
        bank.admit(&high, &view);
        // Threshold 9: Low reaching 3 moves nothing; either reaching 9 does.
        let first_to_9 = low_to_9.min(medium_to_9);
        assert_eq!(bank.next_change(), Some(first_to_9));
        bank.remove(high.id());
        assert_eq!(bank.next_change(), Some(low_to_3));
        bank.accumulate(low_to_3);
        assert_eq!(bank.next_change(), Some(first_to_9));
    }

    /// The bank against the walk-and-sort it replaced: the same random
    /// admissions, retirements and queries at non-decreasing instants give
    /// the same threshold, the same candidates in the same order, and the
    /// same pool sizes; and no pool change ever comes before
    /// [`TokenBank::next_change`].
    #[test]
    fn levels_and_pools_match_the_whole_bank_walk() {
        use nimblock_prng::Prng;
        use std::collections::BTreeMap;

        struct Walked {
            tokens: f64,
            candidate_since: Option<SimTime>,
        }
        let mut rng = Prng::seed_from_u64(0x70c3);
        for _ in 0..40 {
            let alpha = rng.gen_range(0.1..3.0);
            let mut bank = TokenBank::new(alpha);
            let mut walked: BTreeMap<AppId, Walked> = BTreeMap::new();
            let apps = crate::AppArena::new();
            let mut now = SimTime::ZERO;
            let mut next_raw = 0;
            let mut promised: Option<SimTime> = None;
            let mut last_pool: Vec<AppId> = Vec::new();
            for _ in 0..200 {
                now += SimDuration::from_micros(rng.gen_range(0..3_000_000));
                match rng.gen_range(0..4u32) {
                    0 => {
                        let priority = Priority::ALL[rng.gen_range(0..3usize)];
                        let app = make_app(next_raw, priority, rng.gen_range(1..30));
                        next_raw += 1;
                        bank.admit(&app, &view_at(now, &apps, &[]));
                        walked.insert(
                            app.id(),
                            Walked {
                                tokens: 0.0,
                                candidate_since: None,
                            },
                        );
                        promised = None;
                    }
                    1 if !walked.is_empty() => {
                        let victim = *walked.keys().nth(rng.gen_range(0..walked.len())).unwrap();
                        bank.remove(victim);
                        walked.remove(&victim);
                        promised = None;
                    }
                    _ => {}
                }
                bank.accumulate(now);
                for (&id, w) in walked.iter_mut() {
                    w.tokens = bank.entry(id).unwrap().tokens_at(alpha, now);
                }
                let threshold = walked
                    .values()
                    .map(|w| f64::from(Priority::floor_weight(w.tokens)))
                    .fold(0.0, f64::max);
                assert_eq!(bank.threshold(), threshold);
                let mut pool: Vec<(SimTime, AppId)> = walked
                    .iter_mut()
                    .filter(|(_, w)| w.tokens >= threshold)
                    .map(|(&id, w)| (*w.candidate_since.get_or_insert(now), id))
                    .collect();
                pool.sort();
                let expected: Vec<AppId> = pool.iter().map(|&(_, id)| id).collect();
                let limit = rng.gen_range(1..12);
                let mut out = Vec::new();
                assert_eq!(bank.candidates_into(now, limit, &mut out), expected.len());
                assert_eq!(
                    out,
                    expected.iter().copied().take(limit).collect::<Vec<_>>()
                );
                if let Some(at) = promised {
                    if now < at {
                        assert_eq!(
                            expected, last_pool,
                            "the pool moved before the promised change"
                        );
                    }
                }
                promised = bank.next_change();
                if promised.is_none() {
                    promised = Some(SimTime::MAX);
                }
                last_pool = expected;
            }
        }
    }
}
