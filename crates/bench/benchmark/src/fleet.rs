//! `cluster_outage`: the §5.3 replay over an 8-shard fleet with
//! Desiccant on every shard, hedged retries, and one shard `Down` for
//! three rounds of the measured window before it heals from its
//! durable store.
//!
//! The benchmark drives the protocol of `azure_trace::replay_cluster`
//! one barrier round at a time; the slowest shard sets each round's
//! time. Shards drain on `min(2, nproc)` worker threads.

use azure_trace::{build_trace, replay_cluster, ReplayConfig};
use cluster::{Cluster, ClusterConfig, ClusterTotals, FrontEndConfig, ShardSetup};
use desiccant::{Desiccant, DesiccantConfig};
use faas::{MemoryManager, OutageKind, OutagePlan, OutageWindow};
use simos::SimTime;

use crate::replay::{arrivals, ends};
use crate::run::{higher, lower, Sim, Workload};
use crate::trace::span;

pub struct Fleet {
    pub cfg: ReplayConfig,
    pub trace_seed: u64,
    pub jobs: usize,
}

pub struct State {
    cluster: Cluster,
    warm: Vec<(SimTime, usize)>,
    main: Vec<(SimTime, usize)>,
    /// Rounds, events and totals at the end of the warm-up.
    before: (usize, u64, ClusterTotals),
}

fn desiccant_shard(_: u32) -> Option<Box<dyn MemoryManager>> {
    Some(Box::new(Desiccant::new(DesiccantConfig::default())))
}

impl Fleet {
    fn cluster(&self) -> Cluster {
        let config = ClusterConfig {
            jobs: self.jobs,
            frontend: FrontEndConfig {
                hedge: true,
                ..FrontEndConfig::default()
            },
            ..ClusterConfig::default()
        };
        let setup = ShardSetup {
            manager: desiccant_shard,
            ..ShardSetup::vanilla()
        };
        // Dark a quarter of the way into the measured window, so the
        // outage shows in the measured latency and failure counts.
        let round = config.round.as_nanos();
        let start = (self.cfg.warmup.as_nanos() + self.cfg.duration.as_nanos() / 4) / round;
        let mut c = Cluster::new(config, &setup);
        c.set_outage_plan(OutagePlan {
            windows: vec![OutageWindow {
                shard: 5,
                start,
                rounds: 3,
                kind: OutageKind::Down,
                planned: false,
            }],
        });
        c
    }
}

fn rounds(c: &mut Cluster, until: SimTime) {
    let round = c.config().round;
    while c.now() < until {
        let next = (c.now() + round).min(until);
        span("cluster.round", || c.advance_to(next));
    }
}

impl Workload for Fleet {
    type State = State;

    fn setup(&self, _probe: bool) -> State {
        let (warm_end, _, _) = ends(&self.cfg);
        let (warm, main) = arrivals(&self.cfg, self.trace_seed);
        let mut c = span("cluster.new", || self.cluster());
        // The warm-up fills the shards' instance caches before timing
        // starts.
        span("cluster.enqueue", || {
            for &(t, f) in &warm {
                c.enqueue(t, f);
            }
        });
        rounds(&mut c, warm_end);
        c.reset_stats();
        let before = (c.rounds(), c.events_seen(), c.totals());
        State {
            cluster: c,
            warm,
            main,
            before,
        }
    }

    fn run(&self, st: &mut State) -> Sim {
        let (_, replay_end, drain_end) = ends(&self.cfg);
        let c = &mut st.cluster;
        span("cluster.enqueue", || {
            for &(t, f) in &st.main {
                c.enqueue(t, f);
            }
        });
        rounds(c, replay_end);
        rounds(c, drain_end);
        let (totals, availability) = span("cluster.totals", || (c.totals(), c.availability()));
        let window = (self.cfg.duration + self.cfg.drain).as_secs_f64();
        let ms = |d: Option<simos::SimDuration>| d.map_or(0.0, |d| d.as_millis_f64());
        // Platform counters restarted with the measured window; the
        // front end's are run-lifetime.
        let b = &st.before.2;
        let frontend_failed =
            totals.shed() + totals.frontend_failed() - b.shed() - b.frontend_failed();
        Sim {
            attempted: totals.routed - b.routed,
            failed: totals.failed + frontend_failed,
            metrics: vec![
                lower("sim_p50_ms", ms(availability.p50), "ms"),
                lower("sim_p99_ms", ms(availability.p99), "ms"),
                higher(
                    "sim_throughput_rps",
                    totals.completed as f64 / window,
                    "1/s",
                ),
                lower(
                    "sim_cold_boots_per_s",
                    totals.cold_boots as f64 / window,
                    "1/s",
                ),
                lower(
                    "sim_frozen_mb",
                    totals.cache_used as f64 / (1u64 << 20) as f64,
                    "MB",
                ),
            ],
        }
    }

    fn verify(&self, st: &State) -> Result<(), String> {
        let totals = st.cluster.totals();
        if !totals.conservation() {
            return Err(format!(
                "request conservation violated: routed={} delivered={} shed={} failed={} pending={}",
                totals.routed,
                totals.delivered,
                totals.shed(),
                totals.frontend_failed(),
                totals.pending_retries
            ));
        }
        if totals.routed != (st.warm.len() + st.main.len()) as u64 {
            return Err(format!(
                "front end routed {} of the trace's requests",
                totals.routed
            ));
        }
        if totals.outage_rounds != 3 || totals.heals == 0 {
            return Err(format!(
                "expected 3 dark rounds and a heal, saw {} and {}",
                totals.outage_rounds, totals.heals
            ));
        }
        Ok(())
    }

    fn digest(&self, st: &State) -> u64 {
        st.cluster.digest()
    }

    fn control(&self) -> u64 {
        let mut c = self.cluster();
        let trace = build_trace(&workloads::catalog(), self.trace_seed);
        replay_cluster(&mut c, &trace, &self.cfg).digest
    }

    fn counters(&self, st: &State) -> Vec<(&'static str, u64)> {
        // Front-end counters are run-lifetime: report the timed part's
        // share of them.
        let c = &st.cluster;
        let t = c.totals();
        let (rounds, events, b) = &st.before;
        vec![
            (
                "azure-trace.arrivals",
                (st.warm.len() + st.main.len()) as u64,
            ),
            ("cluster.rounds", (c.rounds() - rounds) as u64),
            ("cluster.events", c.events_seen() - events),
            ("cluster.routed", t.routed - b.routed),
            ("cluster.delivered", t.delivered - b.delivered),
            ("cluster.retries", t.retries - b.retries),
            ("cluster.hedges", t.hedges - b.hedges),
            ("cluster.hedge_wins", t.hedge_wins - b.hedge_wins),
            ("cluster.heals", t.heals - b.heals),
            ("cluster.outage_rounds", t.outage_rounds - b.outage_rounds),
        ]
    }
}
