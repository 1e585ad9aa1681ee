//! Per-instance kernel state and the generic invocation driver.
//!
//! One [`FunctionState`] lives alongside each runtime instance and
//! carries everything the function retains between invocations: the
//! initialization-time live set, the rolling state cache, the chain
//! intermediate awaiting transfer, and the weakly-held JIT code object.

use std::collections::VecDeque;

use faas_runtime::InvocationCtx;
use gc_core::object::{ObjectId, ObjectKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simos::SimDuration;

use crate::compute::run_kernel;
use crate::spec::FunctionSpec;

/// Size of the JIT code object each function installs once warm.
const CODE_OBJECT_BYTES: u32 = 96 << 10;

/// Retained state of one function instance (one chain stage).
#[derive(Debug)]
pub struct FunctionState {
    /// Which chain stage this instance runs (0-based).
    stage: u8,
    rng: StdRng,
    initialized: bool,
    /// Rolling retained state (globals), oldest first.
    state_queue: VecDeque<(ObjectId, u32)>,
    state_bytes: u64,
    /// Intermediate output retained until the transfer to the next
    /// stage completes.
    intermediate: Vec<ObjectId>,
    /// Root object holding the weakly referenced JIT code.
    code_holder: Option<ObjectId>,
    /// Completed invocations.
    seq: u64,
    /// Checksum of all kernel runs (pins computation in tests).
    checksum: u64,
}

impl FunctionState {
    /// Creates state for chain stage `stage`, seeded deterministically.
    pub fn new(stage: u8, seed: u64) -> FunctionState {
        FunctionState {
            stage,
            rng: StdRng::seed_from_u64(seed ^ (stage as u64) << 32),
            initialized: false,
            state_queue: VecDeque::new(),
            state_bytes: 0,
            intermediate: Vec::new(),
            code_holder: None,
            seq: 0,
            checksum: 0,
        }
    }

    /// The chain stage this state drives.
    pub fn stage(&self) -> u8 {
        self.stage
    }

    /// Completed invocations.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Combined checksum of all kernel runs so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Runs one invocation of `spec`'s kernel inside `ctx`.
    ///
    /// The shape is the same for every function; the personality
    /// constants in the spec differentiate them:
    ///
    /// 1. first invocation: allocate the initialization live set and
    ///    install the JIT code object (weakly held);
    /// 2. run the miniature computation and charge compute time;
    /// 3. allocate temporaries, a calibrated fraction held until exit;
    /// 4. roll the retained state forward (allocate, evict past cap);
    /// 5. for non-final chain stages, allocate the intermediate output
    ///    and retain it past function exit (transfer completes later —
    ///    see [`FunctionState::complete_transfer`]).
    pub fn invoke(&mut self, spec: &FunctionSpec, ctx: &mut InvocationCtx<'_>) {
        self.seq += 1;
        if !self.initialized {
            self.initialize(spec, ctx);
        }

        // The real miniature computation.
        let seed = self.rng.gen::<u64>();
        let result = run_kernel(spec.kernel, seed);
        self.checksum = self.checksum.wrapping_mul(31).wrapping_add(result);

        // Temporary allocations. Object sizes jitter ±25 % around the
        // calibrated mean; a calibrated fraction stays handle-rooted
        // until function exit.
        let mem = &spec.mem;
        let mut allocated = 0u64;
        let mut prev: Option<ObjectId> = None;
        while allocated < mem.temp_bytes {
            let jitter = self.rng.gen_range(0.75..1.25);
            let size = ((mem.temp_obj_size as f64 * jitter) as u32).max(16);
            let id = ctx.alloc(size);
            allocated += size as u64;
            if self.rng.gen_bool(mem.hold_fraction) {
                ctx.handle(id);
                // Chain temporaries into small structures.
                if let Some(p) = prev {
                    if self.rng.gen_bool(0.5) {
                        ctx.link(id, p);
                    }
                }
                prev = Some(id);
            }
        }

        // Rolling retained state.
        if mem.state_per_invoke > 0 {
            let size = mem.state_per_invoke.min(u32::MAX as u64) as u32;
            let id = ctx.alloc(size);
            ctx.global(id);
            self.state_queue.push_back((id, size));
            self.state_bytes += size as u64;
            while self.state_bytes > mem.state_cap {
                let (old, sz) = self.state_queue.pop_front().expect("bytes imply entries"); // tidy:allow(panic-reachability) -- positive state_bytes implies the queue holds at least one entry
                ctx.drop_global(old);
                self.state_bytes -= sz as u64;
            }
        }

        // Chain intermediate: everything but the last stage produces
        // output that outlives the function exit.
        if spec.chain_len > 1 && self.stage + 1 < spec.chain_len {
            let mut produced = 0u64;
            while produced < mem.intermediate_bytes {
                let size = mem.temp_obj_size.max(4096);
                let id = ctx.alloc(size);
                ctx.global(id);
                self.intermediate.push(id);
                produced += size as u64;
            }
        }

        // Charge compute (±10 % jitter).
        let jitter = self.rng.gen_range(0.9..1.1);
        ctx.work(spec.compute.mul_f64(jitter));
        let _ = result;
    }

    fn initialize(&mut self, spec: &FunctionSpec, ctx: &mut InvocationCtx<'_>) {
        let mem = &spec.mem;
        let mut allocated = 0u64;
        let mut prev: Option<ObjectId> = None;
        while allocated < mem.init_bytes {
            let size = mem.temp_obj_size.max(8 << 10);
            let id = ctx.alloc(size);
            ctx.global(id);
            if let Some(p) = prev {
                ctx.link(id, p);
            }
            prev = Some(id);
            allocated += size as u64;
        }
        // Install the JIT code object, weakly held as V8 does.
        let holder = ctx.alloc(1024);
        ctx.global(holder);
        let code = ctx.alloc_kind(CODE_OBJECT_BYTES, ObjectKind::Code);
        ctx.link_weak(holder, code);
        self.code_holder = Some(holder);
        // Initialization costs extra compute on top of the kernel.
        ctx.work(spec.compute * 2);
        self.initialized = true;
    }

    /// Completes the transfer of this stage's intermediate output to
    /// the next stage: the retained objects become garbage. The
    /// platform calls this once the downstream stage has consumed the
    /// data — *after* the eager baseline's exit-time GC, which is why
    /// eager GC cannot reclaim chain intermediates (§5.2, mapreduce).
    pub fn complete_transfer(&mut self, graph: &mut gc_core::object::HeapGraph) {
        for id in self.intermediate.drain(..) {
            graph.remove_global(id);
        }
    }

    /// Extra wall-time the function spends off-CPU (I/O waits); derived
    /// from the spec, deterministic per invocation.
    pub fn io_wait(&self, spec: &FunctionSpec) -> SimDuration {
        // Functions touching external systems (hash = file reads,
        // html = network) wait a fraction of their compute time.
        spec.compute.mul_f64(0.2)
    }
}

mod snap_impls {
    use super::*;
    use snapshot::{Reader, SnapError, Snapshot, Writer};

    impl Snapshot for FunctionState {
        fn snap(&self, w: &mut Writer) {
            let Self {
                stage,
                rng,
                initialized,
                state_queue,
                state_bytes,
                intermediate,
                code_holder,
                seq,
                checksum,
            } = self;
            stage.snap(w);
            w.blob(&rng.state_bytes());
            initialized.snap(w);
            state_queue.snap(w);
            state_bytes.snap(w);
            intermediate.snap(w);
            code_holder.snap(w);
            seq.snap(w);
            checksum.snap(w);
        }

        fn restore(r: &mut Reader<'_>) -> Result<FunctionState, SnapError> {
            let stage = u8::restore(r)?;
            let rng_bytes = r.blob()?;
            let rng = StdRng::from_state_bytes(rng_bytes)
                .ok_or(SnapError::Corrupt("FunctionState rng state invalid"))?;
            Ok(FunctionState {
                stage,
                rng,
                initialized: bool::restore(r)?,
                state_queue: VecDeque::restore(r)?,
                state_bytes: u64::restore(r)?,
                intermediate: Vec::restore(r)?,
                code_holder: Option::restore(r)?,
                seq: u64::restore(r)?,
                checksum: u64::restore(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_runtime::{Instance, Language, RuntimeImage};
    use simos::{SimTime, System};

    fn setup(lang: Language) -> (System, Instance) {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(lang);
        let libs = image.register_files(&mut sys);
        let inst = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        (sys, inst)
    }

    #[test]
    fn state_is_initialized_once_and_retained() {
        let spec = crate::catalog::by_name("file-hash").unwrap();
        let (mut sys, mut inst) = setup(spec.language);
        let mut state = FunctionState::new(0, 7);
        for i in 0..5 {
            inst.invoke(&mut sys, SimTime(i * 1_000_000), &spec.exec, |ctx| {
                state.invoke(&spec, ctx);
            })
            .unwrap();
        }
        assert_eq!(state.seq(), 5);
        // Retained state respects its cap.
        assert!(state.state_bytes <= spec.mem.state_cap);
        // The live set at freeze is at least the init bytes.
        let live = gc_core::trace::mark(inst.heap().graph(), false, true);
        assert!(live.live_bytes >= spec.mem.init_bytes);
    }

    #[test]
    fn chain_stage_retains_intermediate_until_transfer() {
        let spec = crate::catalog::by_name("mapreduce").unwrap();
        assert!(spec.chain_len > 1);
        let (mut sys, mut inst) = setup(spec.language);
        let mut state = FunctionState::new(0, 3);
        inst.invoke(&mut sys, SimTime(0), &spec.exec, |ctx| {
            state.invoke(&spec, ctx);
        })
        .unwrap();
        assert!(!state.intermediate.is_empty());
        let live_with = gc_core::trace::mark(inst.heap().graph(), false, true).live_bytes;
        state.complete_transfer(inst.heap_mut().graph_mut());
        let live_without = gc_core::trace::mark(inst.heap().graph(), false, true).live_bytes;
        assert!(
            live_without + spec.mem.intermediate_bytes <= live_with + spec.mem.temp_obj_size as u64,
            "transfer did not free the intermediate: {live_with} -> {live_without}"
        );
    }

    #[test]
    fn final_chain_stage_produces_no_intermediate() {
        let spec = crate::catalog::by_name("mapreduce").unwrap();
        let (mut sys, mut inst) = setup(spec.language);
        let last = spec.chain_len - 1;
        let mut state = FunctionState::new(last, 3);
        inst.invoke(&mut sys, SimTime(0), &spec.exec, |ctx| {
            state.invoke(&spec, ctx);
        })
        .unwrap();
        assert!(state.intermediate.is_empty());
    }

    #[test]
    fn checksums_are_deterministic_across_replays() {
        let spec = crate::catalog::by_name("fft").unwrap();
        let mut sums = Vec::new();
        for _ in 0..2 {
            let (mut sys, mut inst) = setup(spec.language);
            let mut state = FunctionState::new(0, 99);
            for i in 0..3 {
                inst.invoke(&mut sys, SimTime(i), &spec.exec, |ctx| {
                    state.invoke(&spec, ctx);
                })
                .unwrap();
            }
            sums.push(state.checksum());
        }
        assert_eq!(sums[0], sums[1]);
    }
}
