//! `checkpoint_chain`: the snapshot layer, written and read back.
//!
//! Set-up warms a platform to a steady state of frozen instances
//! (every request runs at once: cores exceed the request count). The
//! timed part cuts one base, then after each of a few small thaws a
//! delta, takes a full canonical checkpoint, and restores the chain
//! into a fresh platform. The fold must reproduce the canonical bytes,
//! and the canonical bytes must equal those of a control run that made
//! the same requests without cutting any checkpoint.

use cluster::fnv64_bytes as fnv;
use faas::{GcMode, Platform, PlatformConfig};
use simos::{SimDuration, SimTime};

use crate::run::{lower, Sim, Workload};
use crate::trace::span;

pub struct Chain {
    /// Requests of the warm-up.
    pub requests: usize,
    /// Deltas cut, each after one thaw.
    pub deltas: u64,
    /// Requests per thaw.
    pub thaw: usize,
    /// Function of each request: every catalog function equally often,
    /// in an order drawn from the seed.
    pub order: Vec<usize>,
}

pub struct State {
    platform: Platform,
    /// The platform the chain was restored into.
    restored_platform: Option<Platform>,
    chain: Vec<Vec<u8>>,
    canonical: Vec<u8>,
    restored: Vec<u8>,
    instances: usize,
    events: u64,
}

impl Chain {
    pub fn new(requests: usize, deltas: u64, thaw: usize, seed: u64) -> Chain {
        let nf = workloads::catalog().len();
        let mut order: Vec<usize> = (0..requests).map(|i| i % nf).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            let j = (crate::splitmix(&mut s) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Chain {
            requests,
            deltas,
            thaw,
            order,
        }
    }

    fn platform(&self) -> Platform {
        span("faas.new", || {
            Platform::new(self.config(), workloads::catalog(), GcMode::Vanilla, None)
        })
    }

    /// Runs every warm-up request to completion: about two frozen
    /// instances per request (chains have stages).
    fn warm(&self, p: &mut Platform) {
        span("faas.submit", || {
            for &f in &self.order {
                p.submit(SimTime::ZERO, f);
            }
        });
        span("faas.run_until", || {
            p.run_until(SimTime::ZERO + Chain::hour())
        });
    }

    /// Thaw `k`: a few requests that dirty the instances they run on.
    fn thaw(&self, p: &mut Platform, k: u64) {
        span("faas.submit", || {
            for &f in self.order.iter().cycle().skip(k as usize).take(self.thaw) {
                p.submit(p.now(), f);
            }
        });
        let until = p.now() + Chain::hour();
        span("faas.run_until", || p.run_until(until));
    }

    fn config(&self) -> PlatformConfig {
        PlatformConfig {
            cores: self.requests as f64 + 16.0,
            cache_budget: 1 << 44,
            ..PlatformConfig::default()
        }
    }

    fn hour() -> SimDuration {
        SimDuration::from_secs(3600)
    }
}

impl Workload for Chain {
    type State = State;

    fn setup(&self, _probe: bool) -> State {
        let mut p = self.platform();
        self.warm(&mut p);
        let instances = p.instance_count();
        State {
            platform: p,
            restored_platform: None,
            chain: Vec::new(),
            canonical: Vec::new(),
            restored: Vec::new(),
            instances,
            events: 0,
        }
    }

    fn run(&self, st: &mut State) -> Sim {
        let p = &mut st.platform;
        let submitted_before = p.stats().submitted;
        let events_before = p.events_handled();
        st.chain.push(span("snapshot.checkpoint_base", || {
            p.checkpoint_base(1, &[])
        }));
        for k in 0..self.deltas {
            self.thaw(p, k);
            st.chain.push(span("snapshot.checkpoint_delta", || {
                p.checkpoint_delta(k + 2, k + 1, &[])
            }));
        }
        st.events = p.events_handled() - events_before;
        st.canonical = span("snapshot.checkpoint", || p.checkpoint());
        let mut q = self.platform();
        let folded = span("snapshot.restore_chain", || q.restore_chain(&st.chain));
        st.restored = match folded {
            Ok(_) => span("snapshot.checkpoint", || q.checkpoint()),
            Err(e) => format!("restore_chain failed: {e}").into_bytes(),
        };
        st.restored_platform = Some(q);
        let stats = p.stats();
        let bytes: usize = st.chain.iter().map(Vec::len).sum();
        Sim {
            attempted: stats.submitted - submitted_before + self.requests as u64,
            failed: stats.failed,
            metrics: vec![lower("ckpt_mb", bytes as f64 / (1u64 << 20) as f64, "MB")],
        }
    }

    fn verify(&self, st: &State) -> Result<(), String> {
        let base = st.chain.first().map_or(0, Vec::len);
        if st.chain.iter().skip(1).any(|d| d.len() >= base) {
            return Err("a delta wrote as many bytes as the base".to_string());
        }
        if st.restored != st.canonical {
            return Err(format!(
                "restore_chain does not fold to the canonical bytes ({} vs {} bytes, fnv {:016x} vs {:016x})",
                st.restored.len(),
                st.canonical.len(),
                fnv(&st.restored),
                fnv(&st.canonical)
            ));
        }
        if st.platform.stats().completed != st.platform.stats().submitted {
            return Err("a request did not complete".to_string());
        }
        Ok(())
    }

    fn digest(&self, st: &State) -> u64 {
        fnv(&st.canonical)
    }

    fn control(&self) -> u64 {
        let mut p = self.platform();
        self.warm(&mut p);
        for k in 0..self.deltas {
            self.thaw(&mut p, k);
        }
        fnv(&p.checkpoint())
    }

    fn counters(&self, st: &State) -> Vec<(&'static str, u64)> {
        let len = |v: &Vec<u8>| v.len() as u64;
        let base = st.chain.first().map_or(0, len);
        let all: u64 = st.chain.iter().map(len).sum();
        vec![
            ("faas.instances", st.instances as u64),
            ("faas.submitted", self.deltas * self.thaw as u64),
            ("faas.events", st.events),
            ("snapshot.base_bytes", base),
            ("snapshot.delta_bytes", all - base),
            ("snapshot.chain_bytes", all),
            ("snapshot.canonical_bytes", 2 * len(&st.canonical)),
        ]
    }
}
