//! A managed-runtime instance: heap + native memory + libraries + JIT.

use simos::cost::CostModel;
use simos::mem::{page_align_up, MappingKind, Prot};
use simos::{FileId, Pid, SimDuration, SimTime, System, VirtAddr};

use gc_core::{HeapError, ReclaimOutcome};

use crate::heap::RuntimeHeap;
use crate::image::{RuntimeImage, SharedLibs};
use crate::invocation::InvocationCtx;

/// Per-function execution characteristics used by the latency model.
#[derive(Debug, Clone, Copy)]
pub struct ExecProfile {
    /// Extra compute multiplier when the JIT is cold; decays over
    /// [`ExecProfile::warmup_tau`] invocations.
    pub warmup_factor: f64,
    /// Warm-up time constant in invocations.
    pub warmup_tau: f64,
    /// Compute multiplier applied while deoptimization debt is
    /// outstanding (after an aggressive GC cleared JIT code, §4.7).
    /// The paper measures 2.14× for data-analysis and 1.74× for
    /// unionfind.
    pub deopt_sensitivity: f64,
}

impl Default for ExecProfile {
    fn default() -> ExecProfile {
        ExecProfile {
            warmup_factor: 2.0,
            warmup_tau: 6.0,
            deopt_sensitivity: 0.6,
        }
    }
}

/// What one invocation cost, by component.
#[derive(Debug, Clone, Copy)]
pub struct InvocationReport {
    /// End-to-end wall time at the instance's CPU share.
    pub wall_time: SimDuration,
    /// Kernel compute after JIT multipliers (full-CPU time).
    pub compute: SimDuration,
    /// GC pauses plus page-fault refills (full-CPU time).
    pub heap_overhead: SimDuration,
}

/// Fraction of library pages re-touched on the first invocation after
/// the §4.6 unmap optimization (the hot part of the library).
const LIB_HOT_FRACTION: f64 = 0.25;

/// One managed-runtime process: the unit the platform launches,
/// freezes, thaws, and reclaims.
#[derive(Debug, Clone)]
pub struct Instance {
    pid: Pid,
    budget: u64,
    cpu_share: f64,
    heap: RuntimeHeap,
    /// Mapped libraries: `(file, base, len)`.
    libs: Vec<(FileId, VirtAddr, u64)>,
    native_addr: VirtAddr,
    native_len: u64,
    /// JIT warmth: completed invocations.
    warmth: u64,
    /// Outstanding deoptimization debt in `[0, 1]`.
    deopt_debt: f64,
    /// Set by the unmap optimization; cleared by the next invocation's
    /// refault.
    libs_unmapped: bool,
    /// Non-heap latency accrued (library faults, native setup).
    pending: SimDuration,
    os_cost: CostModel,
    /// Runtime initialization time from the image, charged on cold
    /// boot by the platform.
    startup: SimDuration,
}

impl Instance {
    /// Launches a runtime instance: spawns a process, maps the image's
    /// libraries (from `libs`), touches the native working set, and
    /// creates the managed heap.
    ///
    /// For sharing images pass the host-wide [`SharedLibs`]; for
    /// non-sharing (Lambda) images register a fresh
    /// [`RuntimeImage::register_files`] per instance.
    pub fn launch(
        sys: &mut System,
        image: &RuntimeImage,
        libs: &SharedLibs,
        budget: u64,
        cpu_share: f64,
    ) -> Result<Instance, HeapError> {
        assert!(cpu_share > 0.0, "instance needs a CPU share");
        assert_eq!(
            libs.files.len(),
            image.libs.len(),
            "library registration does not match the image"
        );
        let pid = sys.spawn_process();
        let os_cost = CostModel::default();
        let mut pending = SimDuration::ZERO;
        let mut mapped = Vec::new();
        for (file, (_, size)) in libs.files.iter().zip(&image.libs) {
            let addr = sys.map_library(pid, *file)?;
            // Library pages fault in from the page cache.
            pending += os_cost.file_fault * (size / simos::PAGE_SIZE);
            mapped.push((*file, addr, page_align_up(*size)));
        }
        let native_len = page_align_up(image.native_bytes);
        let native_addr =
            sys.mmap_named(pid, native_len, MappingKind::Anonymous, Prot::ReadWrite, "[native]")?;
        pending += os_cost.charge_touch(sys, pid, native_addr, native_len)?;
        let heap = RuntimeHeap::for_language(sys, pid, image.language, budget)?;
        Ok(Instance {
            pid,
            budget,
            cpu_share,
            heap,
            libs: mapped,
            native_addr,
            native_len,
            warmth: 0,
            deopt_debt: 0.0,
            libs_unmapped: false,
            pending,
            os_cost,
            startup: image.startup,
        })
    }

    /// The instance's process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The instance's memory budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The instance's CPU share.
    pub fn cpu_share(&self) -> f64 {
        self.cpu_share
    }

    /// Runtime initialization time (part of the cold-boot cost).
    pub fn startup_time(&self) -> SimDuration {
        self.startup + SimDuration::from_nanos(
            (self.pending.as_nanos() as f64 / self.cpu_share) as u64,
        )
    }

    /// The native (non-heap) anonymous mapping: `(base, len)`.
    pub fn native_range(&self) -> (VirtAddr, u64) {
        (self.native_addr, self.native_len)
    }

    /// The managed heap.
    pub fn heap(&self) -> &RuntimeHeap {
        &self.heap
    }

    /// Mutable managed heap.
    pub fn heap_mut(&mut self) -> &mut RuntimeHeap {
        &mut self.heap
    }

    /// Completed invocations (JIT warmth).
    pub fn warmth(&self) -> u64 {
        self.warmth
    }

    /// Runs one function invocation at simulated time `now`.
    ///
    /// Opens a handle scope, runs the kernel, closes the scope (killing
    /// every temporary), and prices the invocation: JIT-adjusted kernel
    /// compute plus GC pauses plus page-fault refills, all divided by
    /// the instance's CPU share.
    pub fn invoke<F>(
        &mut self,
        sys: &mut System,
        now: SimTime,
        exec: &ExecProfile,
        kernel: F,
    ) -> Result<InvocationReport, HeapError>
    where
        F: FnOnce(&mut InvocationCtx<'_>),
    {
        self.heap.set_now(now);
        // Refault the hot part of unmapped libraries (§4.6 aftermath).
        if self.libs_unmapped {
            self.refault_hot_libs(sys)?;
            self.libs_unmapped = false;
        }
        let scope = self.heap.graph_mut().push_handle_scope();
        let mut ctx = InvocationCtx {
            sys,
            heap: &mut self.heap,
            compute: SimDuration::ZERO,
        };
        kernel(&mut ctx);
        let compute_raw = ctx.compute;
        self.heap.graph_mut().pop_handle_scope(scope);

        let multiplier = 1.0
            + exec.warmup_factor * (-(self.warmth as f64) / exec.warmup_tau).exp()
            + exec.deopt_sensitivity * self.deopt_debt;
        // Re-JITting pays the debt down slowly: recompiling the hot
        // paths takes many invocations, so a §5.6-style 10-invocation
        // window after an aggressive collection runs almost fully
        // deoptimized (the paper measures 2.14x / 1.74x there).
        self.deopt_debt *= 0.98;
        if self.deopt_debt < 0.01 {
            self.deopt_debt = 0.0;
        }
        self.warmth += 1;

        let compute = compute_raw.mul_f64(multiplier);
        let heap_overhead = self.heap.take_elapsed() + std::mem::take(&mut self.pending);
        let full_cpu = compute + heap_overhead;
        let wall = full_cpu.mul_f64(1.0 / self.cpu_share);
        Ok(InvocationReport {
            wall_time: wall,
            compute,
            heap_overhead,
        })
    }

    fn refault_hot_libs(&mut self, sys: &mut System) -> Result<(), HeapError> {
        let mut pending = SimDuration::ZERO;
        for (_, addr, len) in &self.libs {
            let hot = page_align_up((*len as f64 * LIB_HOT_FRACTION) as u64).min(*len);
            if hot == 0 {
                continue;
            }
            let out = sys.touch(self.pid, *addr, hot, false)?;
            pending += self.os_cost.touch_cost(out);
        }
        self.pending += pending;
        Ok(())
    }

    /// The eager baseline's GC at function exit (§3.2): stock
    /// `System.gc()` / `global.gc()`. Returns the wall time it took.
    /// For V8 this is the aggressive collection and may incur
    /// deoptimization debt.
    pub fn eager_gc(&mut self, sys: &mut System) -> Result<SimDuration, HeapError> {
        self.heap.eager_gc(sys)?;
        if self.heap.take_deopt_code_bytes() > 0 {
            self.deopt_debt = 1.0;
        }
        let t = self.heap.take_elapsed();
        Ok(t.mul_f64(1.0 / self.cpu_share))
    }

    /// The Desiccant reclamation (§4.4): runtime GC + release of all
    /// free pages. With `keep_weak` (the §4.7 option) JIT code
    /// survives; without it the instance takes on deoptimization debt
    /// like the aggressive baseline.
    pub fn reclaim(
        &mut self,
        sys: &mut System,
        now: SimTime,
        keep_weak: bool,
    ) -> Result<ReclaimOutcome, HeapError> {
        self.heap.set_now(now);
        let report = self.heap.reclaim(sys, keep_weak)?;
        if self.heap.take_deopt_code_bytes() > 0 {
            self.deopt_debt = 1.0;
        }
        // Reclamation latency is charged to the reclaim report, not to
        // the next invocation.
        let _ = self.heap.take_elapsed();
        Ok(report)
    }

    /// The §4.6 shared-library optimization: release every mapping that
    /// is private to this process, unmodified, and file-backed —
    /// provided this instance is the *only* user. Returns released
    /// bytes.
    pub fn unmap_private_libs(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let mut released = 0u64;
        for (start, len) in simos::metrics::private_unmodified_files(sys, self.pid) {
            released += sys.release(self.pid, VirtAddr(start), len)?;
        }
        if released > 0 {
            self.libs_unmapped = true;
        }
        Ok(released)
    }

    /// Kernel-free helper: swap out every resident page of the instance
    /// (the §5.6 swapping baseline — no runtime guidance at all).
    pub fn swap_out_all(&mut self, sys: &mut System) -> Result<u64, HeapError> {
        let ranges: Vec<(VirtAddr, u64)> = sys
            .space(self.pid)?
            .mappings()
            .map(|m| (m.start, m.len()))
            .collect();
        let mut swapped = 0;
        for (addr, len) in ranges {
            swapped += sys.swap_out(self.pid, addr, len)?;
        }
        Ok(swapped)
    }

    /// USS of this instance in bytes (the paper's primary metric).
    pub fn uss(&self, sys: &System) -> u64 {
        sys.uss(self.pid)
    }

    /// RSS of this instance in bytes.
    pub fn rss(&self, sys: &System) -> u64 {
        sys.rss(self.pid)
    }

    /// PSS of this instance in bytes.
    pub fn pss(&self, sys: &System) -> f64 {
        sys.pss(self.pid)
    }

    /// The *ideal* memory consumption of §3.1: what the instance would
    /// use if the heap kept only live objects — current USS minus heap
    /// waste (resident heap beyond page-rounded live bytes).
    pub fn ideal_uss(&self, sys: &System) -> u64 {
        let uss = self.uss(sys);
        let heap_resident = self.heap.resident_heap_bytes(sys);
        let live = page_align_up(self.heap.current_live_bytes());
        uss - heap_resident.min(uss) + live.min(heap_resident)
    }

    /// Destroys the instance's process and returns the USS it freed —
    /// the bytes that leave physical memory with the kill (shared
    /// page-cache pages survive for other mappers). Crash and teardown
    /// paths use the return value for conservation checks.
    pub fn kill(self, sys: &mut System) -> u64 {
        let freed = sys.uss(self.pid);
        // The process may already be gone in teardown paths; ignore.
        let _ = sys.kill_process(self.pid);
        freed
    }
}

snapshot::record!(Instance {
    pid: Pid,
    budget: u64,
    cpu_share: f64,
    heap: RuntimeHeap,
    libs: Vec<(FileId, VirtAddr, u64)>,
    native_addr: VirtAddr,
    native_len: u64,
    warmth: u64,
    deopt_debt: f64,
    libs_unmapped: bool,
    pending: SimDuration,
    os_cost: CostModel,
    startup: SimDuration,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Language;

    fn launch(lang: Language) -> (System, Instance) {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(lang);
        let libs = image.register_files(&mut sys);
        let inst = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        (sys, inst)
    }

    #[test]
    fn launch_produces_native_and_lib_footprint() {
        for lang in [Language::Java, Language::JavaScript] {
            let (sys, inst) = launch(lang);
            let image = RuntimeImage::openwhisk(lang);
            // Sole instance: libraries are private, so USS covers
            // native + libs.
            assert!(inst.uss(&sys) >= image.native_bytes + image.lib_bytes());
            assert!(inst.startup_time() > image.startup);
        }
    }

    #[test]
    fn invocations_warm_up() {
        let (mut sys, mut inst) = launch(Language::Java);
        let exec = ExecProfile::default();
        let mut latencies = Vec::new();
        for i in 0..10 {
            let r = inst
                .invoke(&mut sys, SimTime(i * 1_000_000_000), &exec, |ctx| {
                    let a = ctx.alloc(256 << 10);
                    ctx.handle(a);
                    ctx.work(SimDuration::from_millis(10));
                })
                .unwrap();
            latencies.push(r.wall_time);
        }
        assert!(
            latencies[9] < latencies[0],
            "no JIT warm-up: {:?} vs {:?}",
            latencies[9],
            latencies[0]
        );
        // CPU share scales the wall time: 10 ms of compute at 0.14 CPU
        // is at least 70 ms wall.
        assert!(latencies[9] >= SimDuration::from_millis(70));
    }

    #[test]
    fn aggressive_gc_incurs_deopt_debt_on_v8() {
        let (mut sys, mut inst) = launch(Language::JavaScript);
        let exec = ExecProfile {
            warmup_factor: 0.0,
            warmup_tau: 1.0,
            deopt_sensitivity: 1.14,
        };
        // A throwaway invocation drains the launch-time fault costs so
        // the comparison below isolates the deopt effect.
        run_with_code(&mut sys, &mut inst, &exec, 0);
        // Install weakly-referenced code, as the JIT would.
        let r_warm = run_with_code(&mut sys, &mut inst, &exec, 0);
        // A weak-preserving reclaim must not create deopt debt.
        let mut debt_free = inst.clone();
        debt_free.reclaim(&mut sys, SimTime(100), true).unwrap();
        assert_eq!(debt_free.deopt_debt, 0.0);
        inst.eager_gc(&mut sys).unwrap();
        let r_deopt = run_with_code(&mut sys, &mut inst, &exec, 1);
        assert!(
            r_deopt.wall_time > r_warm.wall_time.mul_f64(1.5),
            "deopt did not slow execution: {:?} vs {:?}",
            r_deopt.wall_time,
            r_warm.wall_time
        );
    }

    fn run_with_code(
        sys: &mut System,
        inst: &mut Instance,
        exec: &ExecProfile,
        seq: u64,
    ) -> InvocationReport {
        inst.invoke(sys, SimTime(seq * 1_000_000_000), exec, |ctx| {
            let holder = ctx.alloc(1024);
            ctx.global(holder);
            let code = ctx.alloc_kind(64 << 10, gc_core::ObjectKind::Code);
            ctx.link_weak(holder, code);
            ctx.work(SimDuration::from_millis(20));
        })
        .unwrap()
    }

    #[test]
    fn unmap_private_libs_releases_and_refaults() {
        let (mut sys, mut inst) = launch(Language::Java);
        let uss_before = inst.uss(&sys);
        let released = inst.unmap_private_libs(&mut sys).unwrap();
        assert!(released > 0);
        assert!(inst.uss(&sys) < uss_before);
        // Next invocation re-touches the hot part.
        let exec = ExecProfile::default();
        inst.invoke(&mut sys, SimTime(0), &exec, |ctx| {
            ctx.work(SimDuration::from_millis(1));
        })
        .unwrap();
        let image = RuntimeImage::openwhisk(Language::Java);
        let uss_after = inst.uss(&sys);
        // Hot quarter of the libraries is back.
        assert!(uss_after > inst.heap.resident_heap_bytes(&sys));
        assert!(uss_after < uss_before);
        let _ = image;
    }

    #[test]
    fn unmap_private_libs_keeps_a_library_another_instance_maps() {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(Language::JavaScript);
        let libs = image.register_files(&mut sys);
        let mut a = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        let b = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        let rss_before = sys.rss(a.pid);
        assert_eq!(a.unmap_private_libs(&mut sys).unwrap(), 0);
        assert_eq!(sys.rss(a.pid), rss_before);
        assert!(!a.libs_unmapped);
        let _ = b;
    }

    #[test]
    fn unmap_private_libs_keeps_a_library_with_a_cow_page() {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(Language::Java);
        let libs = image.register_files(&mut sys);
        let mut inst = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        // One write breaks CoW on one page of every library.
        for &(_, addr, _) in &inst.libs {
            sys.touch(inst.pid, addr, simos::PAGE_SIZE, true).unwrap();
        }
        let rss_before = sys.rss(inst.pid);
        assert_eq!(inst.unmap_private_libs(&mut sys).unwrap(), 0);
        assert_eq!(sys.rss(inst.pid), rss_before);
        assert!(!inst.libs_unmapped);
    }

    #[test]
    fn shared_libs_do_not_count_in_uss_with_two_instances() {
        let mut sys = System::new();
        let image = RuntimeImage::openwhisk(Language::JavaScript);
        let libs = image.register_files(&mut sys);
        let a = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        let b = Instance::launch(&mut sys, &image, &libs, 256 << 20, 0.14).unwrap();
        // With two mappers the library pages leave USS.
        assert!(a.uss(&sys) < image.native_bytes + image.lib_bytes());
        // But a Lambda-style pair (separate registrations) keeps them.
        let image_l = RuntimeImage::lambda(Language::JavaScript);
        let la_files = image_l.register_files(&mut sys);
        let la = Instance::launch(&mut sys, &image_l, &la_files, 256 << 20, 0.14).unwrap();
        let lb_files = image_l.register_files(&mut sys);
        let lb = Instance::launch(&mut sys, &image_l, &lb_files, 256 << 20, 0.14).unwrap();
        assert!(la.uss(&sys) >= image_l.native_bytes + image_l.lib_bytes());
        assert!(lb.uss(&sys) >= image_l.native_bytes + image_l.lib_bytes());
        let _ = b;
    }

    #[test]
    fn ideal_uss_subtracts_heap_waste() {
        let (mut sys, mut inst) = launch(Language::Java);
        let exec = ExecProfile::default();
        for i in 0..5 {
            inst.invoke(&mut sys, SimTime(i), &exec, |ctx| {
                // 2 MiB of garbage, 64 KiB retained.
                for _ in 0..32 {
                    let t = ctx.alloc(64 << 10);
                    ctx.handle(t);
                }
                let keep = ctx.alloc(64 << 10);
                ctx.global(keep);
            })
            .unwrap();
        }
        // Run a collection so last_live_bytes is meaningful.
        inst.eager_gc(&mut sys).unwrap();
        let ideal = inst.ideal_uss(&sys);
        let uss = inst.uss(&sys);
        assert!(ideal < uss, "ideal {ideal} not below uss {uss}");
        // Ideal still contains the native + library footprint.
        let image = RuntimeImage::openwhisk(Language::Java);
        assert!(ideal >= image.native_bytes);
    }

    #[test]
    fn swap_out_all_clears_residency() {
        let (mut sys, mut inst) = launch(Language::Java);
        let exec = ExecProfile::default();
        inst.invoke(&mut sys, SimTime(0), &exec, |ctx| {
            let a = ctx.alloc(1 << 20);
            ctx.global(a);
        })
        .unwrap();
        let swapped = inst.swap_out_all(&mut sys).unwrap();
        assert!(swapped > 0);
        assert_eq!(inst.rss(&sys), 0);
        // The next invocation swaps the working set back in and is
        // expensive.
        let r = inst
            .invoke(&mut sys, SimTime(1), &exec, |ctx| {
                let b = ctx.alloc(1 << 20);
                ctx.handle(b);
            })
            .unwrap();
        assert!(r.heap_overhead > SimDuration::ZERO);
    }

    #[test]
    fn kill_frees_the_process() {
        let (mut sys, inst) = launch(Language::Java);
        assert_eq!(sys.process_count(), 1);
        inst.kill(&mut sys);
        assert_eq!(sys.process_count(), 0);
    }
}
