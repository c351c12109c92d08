//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what can go wrong* during a run: a seeded
//! random component (per-opportunity injection with probability
//! [`FaultPlan::rate`], restricted to [`FaultPlan::sites`]) plus an
//! optional directed [`FaultEvent`] list for reproducing a specific
//! scenario. The plan itself is pure data (it lives in
//! [`crate::config::MachineConfig`] and participates in its `PartialEq`);
//! the mutable runtime state — one seeded RNG stream per site plus the
//! pending directed events — lives in a [`SiteInjector`] owned by the
//! subsystem that hosts the site.
//!
//! # Determinism and fast-forward safety
//!
//! Every random draw is made at a *fault opportunity*: a flit injection
//! attempt, a bank grant, an instruction issue inside a transaction.
//! Opportunities are architectural events, and the event-driven
//! fast-forward engine (DESIGN.md §6) only ever skips spans in which no
//! architectural event occurs — so the sequence of draws is identical
//! with fast-forward on or off, and identical across reruns of the same
//! seed. Directed events are pinned to a cycle; their `at_cycle` joins
//! the fast-forward wake computation (via each injector's
//! [`SiteInjector::next_event`]) so the machine always ticks the cycle
//! at which one fires.
//!
//! # Recovery contract
//!
//! Injected faults are *transient*: the recovery paths (sender
//! timeout/retry with bounded exponential backoff, receive-side dedup,
//! bank-request reissue, TM re-execution) must absorb them without any
//! architectural effect beyond cycle counts. A run under any fault plan
//! either completes with final memory byte-identical to the fault-free
//! run, or fails closed with [`crate::machine::SimError::FaultBudget`]
//! forensics once a retry budget is exhausted. DESIGN.md §10 carries the
//! full argument.

use crate::config::Watchdogs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An injection site: where in the machine a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Operand-network flit dropped in flight (sender must retry).
    NetDrop,
    /// Operand-network flit delayed in flight.
    NetDelay,
    /// Operand-network flit delivered twice (receiver must dedup).
    NetDuplicate,
    /// Interconnect bank loses a grant (request must be reissued).
    GrantLoss,
    /// Interconnect bank stalls transiently, inflating a grant latency.
    BankStall,
    /// Spurious abort of a live transaction, drawn at its commit attempt
    /// (TM re-executes the chunk). Irrevocable transactions — those that
    /// already issued a network operation — are never aborted: the
    /// in-flight message could not be replayed.
    TmAbort,
    /// Transient instruction-fetch hiccup on a core.
    Fetch,
}

impl FaultSite {
    /// Every site, in a fixed order (stats tables index by position).
    pub const ALL: [FaultSite; 7] = [
        FaultSite::NetDrop,
        FaultSite::NetDelay,
        FaultSite::NetDuplicate,
        FaultSite::GrantLoss,
        FaultSite::BankStall,
        FaultSite::TmAbort,
        FaultSite::Fetch,
    ];

    /// Dense index into per-site tables.
    pub fn index(self) -> usize {
        match self {
            FaultSite::NetDrop => 0,
            FaultSite::NetDelay => 1,
            FaultSite::NetDuplicate => 2,
            FaultSite::GrantLoss => 3,
            FaultSite::BankStall => 4,
            FaultSite::TmAbort => 5,
            FaultSite::Fetch => 6,
        }
    }

    /// Stable label for flags, stats, and trace tracks.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::NetDrop => "net-drop",
            FaultSite::NetDelay => "net-delay",
            FaultSite::NetDuplicate => "net-dup",
            FaultSite::GrantLoss => "grant-loss",
            FaultSite::BankStall => "bank-stall",
            FaultSite::TmAbort => "tm-abort",
            FaultSite::Fetch => "fetch",
        }
    }

    /// Parse a `site=` flag value (the inverse of [`FaultSite::label`]).
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|f| f.label() == s)
    }
}

/// What a fault does when it strikes. The delay/stall payloads carry the
/// magnitude in cycles; random injection draws them from small bounded
/// ranges so a transient can never masquerade as a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Drop the flit (network).
    Drop,
    /// Delay delivery by the given extra cycles (network).
    Delay(u64),
    /// Deliver the flit twice (network).
    Duplicate,
    /// Lose the grant; the request is reissued (interconnect bank).
    GrantLoss,
    /// Inflate the grant latency by the given cycles (interconnect bank).
    Stall(u64),
    /// Abort a live transaction spuriously (TM).
    SpuriousAbort,
    /// Block instruction fetch for the given cycles (core front end).
    FetchHiccup(u64),
}

impl FaultKind {
    /// The site a directed event of this kind belongs to.
    pub fn site(self) -> FaultSite {
        match self {
            FaultKind::Drop => FaultSite::NetDrop,
            FaultKind::Delay(_) => FaultSite::NetDelay,
            FaultKind::Duplicate => FaultSite::NetDuplicate,
            FaultKind::GrantLoss => FaultSite::GrantLoss,
            FaultKind::Stall(_) => FaultSite::BankStall,
            FaultKind::SpuriousAbort => FaultSite::TmAbort,
            FaultKind::FetchHiccup(_) => FaultSite::Fetch,
        }
    }
}

/// A directed fault: fire `kind` at the first opportunity at or after
/// `at_cycle`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Cycle at (or after) which the fault fires.
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Largest random delivery delay / bank stall / fetch hiccup, cycles.
const MAX_RANDOM_MAGNITUDE: u64 = 16;

/// A deterministic fault plan: pure data, attached to
/// [`crate::config::MachineConfig::faults`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-site RNG streams.
    pub seed: u64,
    /// Per-opportunity injection probability (0.0 disables the random
    /// component; directed events still fire).
    pub rate: f64,
    /// Sites the random component may strike. Empty means *all* sites.
    pub sites: Vec<FaultSite>,
    /// Directed events, in any order (each injector sorts its own).
    pub directed: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with only the random component.
    pub fn seeded(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            sites: Vec::new(),
            directed: Vec::new(),
        }
    }

    /// True when the random component may strike `site`.
    fn site_enabled(&self, site: FaultSite) -> bool {
        self.sites.is_empty() || self.sites.contains(&site)
    }

    /// Restrict the random component to one site (builder style).
    pub fn only(mut self, site: FaultSite) -> FaultPlan {
        self.sites = vec![site];
        self
    }

    /// Add a directed event (builder style).
    pub fn with_event(mut self, at_cycle: u64, kind: FaultKind) -> FaultPlan {
        self.directed.push(FaultEvent { at_cycle, kind });
        self
    }

    /// Derive the plan a retry attempt should run under: same shape,
    /// seed salted by the attempt index, so a fault schedule that
    /// exhausted a budget does not deterministically recur.
    pub fn reseeded(&self, attempt: u64) -> FaultPlan {
        let mut p = self.clone();
        p.seed = self
            .seed
            .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        p
    }

    /// Parse a `--faults` flag value: comma-separated `key=value` pairs —
    /// `seed=N` (default 0), `rate=R` (default 0.0), and any number of
    /// `site=LABEL` restrictions (default: all sites).
    ///
    /// # Errors
    /// Returns a message naming the offending pair.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::seeded(0, 0.0);
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--faults: expected key=value, got `{pair}`"))?;
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("--faults: bad seed `{value}`"))?;
                }
                "rate" => {
                    plan.rate = value
                        .parse()
                        .map_err(|_| format!("--faults: bad rate `{value}`"))?;
                    if !(0.0..=1.0).contains(&plan.rate) {
                        return Err(format!("--faults: rate {value} outside [0, 1]"));
                    }
                }
                "site" => {
                    let site = FaultSite::parse(value).ok_or_else(|| {
                        format!(
                            "--faults: unknown site `{value}` (one of {})",
                            FaultSite::ALL.map(FaultSite::label).join("|")
                        )
                    })?;
                    if !plan.sites.contains(&site) {
                        plan.sites.push(site);
                    }
                }
                other => return Err(format!("--faults: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Render the plan back into `--faults` syntax (for `BENCH_*.json`).
    pub fn spec(&self) -> String {
        let mut s = format!("seed={},rate={}", self.seed, self.rate);
        for site in &self.sites {
            s.push_str(",site=");
            s.push_str(site.label());
        }
        s
    }

    /// Build the runtime injector for one site. Each site gets an
    /// independent RNG stream (seed XOR a site-specific splitmix of the
    /// index) so enabling one site never perturbs another's schedule.
    pub fn injector(&self, site: FaultSite) -> SiteInjector {
        let stream = self.seed ^ (site.index() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut directed: Vec<FaultEvent> = self
            .directed
            .iter()
            .filter(|e| e.kind.site() == site)
            .copied()
            .collect();
        // Latest first, so the runtime pops due events off the back.
        directed.sort_by_key(|e| std::cmp::Reverse(e.at_cycle));
        SiteInjector {
            site,
            rng: StdRng::seed_from_u64(stream),
            rate: if self.site_enabled(site) {
                self.rate
            } else {
                0.0
            },
            directed,
            stats: SiteFaults::default(),
        }
    }
}

/// Per-site fault counters, threaded through
/// [`crate::stats::MachineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteFaults {
    /// Faults injected at this site.
    pub injected: u64,
    /// Recovery retries taken (resends, reissues, re-executions).
    pub retried: u64,
    /// Faults fully recovered from.
    pub recovered: u64,
    /// Faults that exhausted their retry budget (each one surfaces as a
    /// [`crate::machine::SimError::FaultBudget`]).
    pub gave_up: u64,
}

impl SiteFaults {
    /// Merge another site's counters into this one.
    pub fn absorb(&mut self, other: &SiteFaults) {
        self.injected += other.injected;
        self.retried += other.retried;
        self.recovered += other.recovered;
        self.gave_up += other.gave_up;
    }
}

/// All sites' counters (one row per [`FaultSite::ALL`] entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Counters indexed by [`FaultSite::index`].
    pub sites: [SiteFaults; FaultSite::ALL.len()],
}

impl FaultStats {
    /// Counters for one site.
    pub fn site(&self, site: FaultSite) -> &SiteFaults {
        &self.sites[site.index()]
    }

    /// Mutable counters for one site.
    pub fn site_mut(&mut self, site: FaultSite) -> &mut SiteFaults {
        &mut self.sites[site.index()]
    }

    /// Total faults injected across sites.
    pub fn injected(&self) -> u64 {
        self.sites.iter().map(|s| s.injected).sum()
    }

    /// Total faults recovered across sites.
    pub fn recovered(&self) -> u64 {
        self.sites.iter().map(|s| s.recovered).sum()
    }

    /// Total budget exhaustions across sites.
    pub fn gave_up(&self) -> u64 {
        self.sites.iter().map(|s| s.gave_up).sum()
    }

    /// True when any counter is nonzero (gates report sections so
    /// fault-free output stays byte-identical).
    pub fn any(&self) -> bool {
        self.sites
            .iter()
            .any(|s| s.injected + s.retried + s.recovered + s.gave_up > 0)
    }

    /// `(label, counters)` rows for report rendering.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &SiteFaults)> {
        FaultSite::ALL
            .iter()
            .map(move |&s| (s.label(), self.site(s)))
    }
}

/// Runtime injection state for one site: the seeded RNG stream, the
/// pending directed events, and the site's counters. Owned by the
/// subsystem hosting the site; consulted only at fault opportunities.
#[derive(Debug, Clone)]
pub struct SiteInjector {
    site: FaultSite,
    rng: StdRng,
    rate: f64,
    /// Pending directed events, sorted latest-first (pop due from back).
    directed: Vec<FaultEvent>,
    stats: SiteFaults,
}

impl SiteInjector {
    /// The site this injector serves.
    pub fn site(&self) -> FaultSite {
        self.site
    }

    /// Consult the injector at a fault opportunity: a due directed event
    /// fires first; otherwise the RNG draws against the rate. Exactly one
    /// draw is consumed per opportunity with a nonzero rate, keeping the
    /// stream aligned across fast-forward modes.
    pub fn fire(&mut self, now: u64) -> Option<FaultKind> {
        if let Some(e) = self.directed.last() {
            if e.at_cycle <= now {
                let e = self.directed.pop().expect("checked non-empty");
                self.stats.injected += 1;
                return Some(e.kind);
            }
        }
        if self.rate > 0.0 && self.rng.gen_range(0.0f64..1.0) < self.rate {
            self.stats.injected += 1;
            return Some(self.random_kind());
        }
        None
    }

    /// The kind a random strike at this site produces (magnitudes drawn
    /// from the same stream, bounded by [`MAX_RANDOM_MAGNITUDE`]).
    fn random_kind(&mut self) -> FaultKind {
        match self.site {
            FaultSite::NetDrop => FaultKind::Drop,
            FaultSite::NetDelay => FaultKind::Delay(self.rng.gen_range(1..=MAX_RANDOM_MAGNITUDE)),
            FaultSite::NetDuplicate => FaultKind::Duplicate,
            FaultSite::GrantLoss => FaultKind::GrantLoss,
            FaultSite::BankStall => FaultKind::Stall(self.rng.gen_range(1..=MAX_RANDOM_MAGNITUDE)),
            FaultSite::TmAbort => FaultKind::SpuriousAbort,
            FaultSite::Fetch => {
                FaultKind::FetchHiccup(self.rng.gen_range(1..=MAX_RANDOM_MAGNITUDE))
            }
        }
    }

    /// Earliest pending directed event at or after `now`, for the
    /// fast-forward wake computation: the machine must tick that cycle so
    /// both modes consume the event at the same opportunity.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.directed.last().map(|e| e.at_cycle.max(now))
    }

    /// Record recovery retries.
    pub fn note_retried(&mut self, n: u64) {
        self.stats.retried += n;
    }

    /// Record a full recovery.
    pub fn note_recovered(&mut self) {
        self.stats.recovered += 1;
    }

    /// Record a budget exhaustion.
    pub fn note_gave_up(&mut self) {
        self.stats.gave_up += 1;
    }

    /// Counters snapshot.
    pub fn stats(&self) -> SiteFaults {
        self.stats
    }
}

/// A retry budget was exhausted: the typed forensics payload of
/// [`crate::machine::SimError::FaultBudget`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultBudgetReport {
    /// Cycle at which recovery gave up.
    pub cycle: u64,
    /// The site whose budget ran out.
    pub site: FaultSite,
    /// Retries taken before giving up.
    pub attempts: u32,
    /// The budget that was exceeded.
    pub budget: u32,
    /// What was being retried (message route, bank request, ...).
    pub detail: String,
}

impl std::fmt::Display for FaultBudgetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault recovery gave up at cycle {}: site {} exhausted its retry budget \
             ({} attempts > {} allowed) on {}",
            self.cycle,
            self.site.label(),
            self.attempts,
            self.budget,
            self.detail
        )
    }
}

/// What a subsystem that hosts fault sites carries beside its
/// [`SiteInjector`]s: the retry budget and backoff it recovers under, the
/// first budget exhaustion (held for the machine to surface), and the
/// fault/recovery log the machine drains into trace events.
#[derive(Debug)]
pub struct FaultPort {
    watchdogs: Watchdogs,
    failure: Option<FaultBudgetReport>,
    /// Populated only while a tracer will drain it.
    log_enabled: bool,
    events: Vec<(u64, usize, FaultSite, &'static str)>,
}

impl FaultPort {
    /// A port recovering under `watchdogs`' retry budget and backoff.
    pub fn new(watchdogs: &Watchdogs) -> FaultPort {
        FaultPort {
            watchdogs: *watchdogs,
            failure: None,
            log_enabled: false,
            events: Vec::new(),
        }
    }

    /// Retries allowed per message or request.
    pub fn budget(&self) -> u32 {
        self.watchdogs.fault_retry_budget
    }

    /// Delay before retry `attempt` ([`Watchdogs::backoff`]).
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.watchdogs.backoff(attempt)
    }

    /// Record a fault or recovery `action` at `site`, if anyone listens.
    pub fn log(&mut self, now: u64, core: usize, site: FaultSite, action: &'static str) {
        if self.log_enabled {
            self.events.push((now, core, site, action));
        }
    }

    /// Record a retry-budget exhaustion; the first one is kept.
    pub fn fail(&mut self, report: FaultBudgetReport) {
        self.failure.get_or_insert(report);
    }

    /// Enable the fault/recovery event log (only useful with a tracer
    /// attached; unbounded otherwise, so off by default).
    pub fn set_logging(&mut self, on: bool) {
        self.log_enabled = on;
    }

    /// Drain the fault/recovery log: `(cycle, core, site, action)`.
    pub fn take_events(&mut self) -> Vec<(u64, usize, FaultSite, &'static str)> {
        std::mem::take(&mut self.events)
    }

    /// The first retry-budget exhaustion, if one occurred (the machine
    /// polls this after each tick and fails the run closed).
    pub fn take_failure(&mut self) -> Option<FaultBudgetReport> {
        self.failure.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let p = FaultPlan::parse("seed=42,rate=0.25,site=net-drop,site=fetch").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rate, 0.25);
        assert_eq!(p.sites, vec![FaultSite::NetDrop, FaultSite::Fetch]);
        assert_eq!(p.spec(), "seed=42,rate=0.25,site=net-drop,site=fetch");
        assert_eq!(FaultPlan::parse(&p.spec()).unwrap(), p);
    }

    #[test]
    fn parse_rejects_bad_pairs() {
        assert!(FaultPlan::parse("seed").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("rate=1.5").is_err());
        assert!(FaultPlan::parse("site=warp-core").is_err());
        assert!(FaultPlan::parse("flux=1").is_err());
    }

    #[test]
    fn site_filter_defaults_to_all() {
        let p = FaultPlan::seeded(1, 0.5);
        assert!(FaultSite::ALL.iter().all(|&s| p.site_enabled(s)));
        let p = p.only(FaultSite::TmAbort);
        assert!(p.site_enabled(FaultSite::TmAbort));
        assert!(!p.site_enabled(FaultSite::NetDrop));
        // A disabled site's injector never strikes randomly.
        let mut inj = p.injector(FaultSite::NetDrop);
        assert!((0..10_000).all(|t| inj.fire(t).is_none()));
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let fires = |seed: u64| -> Vec<u64> {
            let mut inj = FaultPlan::seeded(seed, 0.1).injector(FaultSite::NetDrop);
            (0..1000).filter(|&t| inj.fire(t).is_some()).collect()
        };
        assert_eq!(fires(7), fires(7));
        assert_ne!(fires(7), fires(8));
        let n = fires(7).len() as f64;
        assert!((50.0..200.0).contains(&n), "rate 0.1 fired {n} of 1000");
    }

    #[test]
    fn directed_events_fire_in_cycle_order() {
        let plan = FaultPlan::seeded(0, 0.0)
            .with_event(50, FaultKind::FetchHiccup(3))
            .with_event(10, FaultKind::FetchHiccup(1));
        let mut inj = plan.injector(FaultSite::Fetch);
        assert_eq!(inj.next_event(0), Some(10));
        assert_eq!(inj.fire(9), None);
        assert_eq!(inj.fire(10), Some(FaultKind::FetchHiccup(1)));
        assert_eq!(inj.next_event(12), Some(50));
        // A late opportunity still consumes the event.
        assert_eq!(inj.fire(60), Some(FaultKind::FetchHiccup(3)));
        assert_eq!(inj.next_event(61), None);
        assert_eq!(inj.stats().injected, 2);
    }

    #[test]
    fn reseeding_changes_the_schedule_but_not_the_shape() {
        let p = FaultPlan::seeded(3, 0.2).only(FaultSite::BankStall);
        let r = p.reseeded(1);
        assert_ne!(p.seed, r.seed);
        assert_eq!(p.rate, r.rate);
        assert_eq!(p.sites, r.sites);
        assert_eq!(p.reseeded(0), p);
    }

    #[test]
    fn stats_aggregate_across_sites() {
        let mut fs = FaultStats::default();
        fs.site_mut(FaultSite::NetDrop).injected = 3;
        fs.site_mut(FaultSite::NetDrop).recovered = 3;
        fs.site_mut(FaultSite::TmAbort).injected = 2;
        fs.site_mut(FaultSite::TmAbort).gave_up = 1;
        assert_eq!(fs.injected(), 5);
        assert_eq!(fs.recovered(), 3);
        assert_eq!(fs.gave_up(), 1);
        assert!(fs.any());
        assert!(!FaultStats::default().any());
        let rows: Vec<_> = fs.rows().collect();
        assert_eq!(rows.len(), FaultSite::ALL.len());
        assert_eq!(rows[0].0, "net-drop");
        assert_eq!(rows[0].1.injected, 3);
    }
}
