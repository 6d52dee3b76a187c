//! One repetition, run in its own child process so that set-up is cold and
//! `VmHWM` belongs to this repetition alone:
//!
//! `Universe::run(P)` → build backend → `random_solenoidal` +
//! `normalize_energy` → `NavierStokes::new` → warm-up steps → timed steps.
//!
//! The timed region of a step is `t0 = now; ns.step(); t1 = now` and nothing
//! else: thread spawn, plan and device construction, the initial condition,
//! warm-up, barriers, the finiteness scan, the spectrum snapshot and all
//! bookkeeping sit outside it. The measured pass builds no tracer, no
//! wrapper and no span log; the traced pass adds all three.

use std::sync::Mutex;
use std::time::Instant;

use psdns_comm::{Communicator, Universe};
use psdns_core::{
    energy_spectrum, flow_stats, normalize_energy, random_solenoidal, Checkpoint, Forcing,
    GpuSlabFft, IntegrityConfig, LocalShape, NavierStokes, NsConfig, PhysicalField, SlabFftCpu,
    SpectralField, TimeScheme, Transform3d,
};
use psdns_device::{Device, DeviceConfig};
use psdns_fft::Real;
use psdns_trace::Tracer;

use crate::decl::{Kind, Workload};
use crate::json::Json;
use crate::procfs;
use crate::spans::{Span, SpanLog, StepTotals};

/// Variables per transform the pipeline's slot buffers are sized for: the
/// solver moves û and ω̂ (6 fields) to physical space in one call.
pub const NV: usize = 6;
/// Variables of the backward transform: the three nonlinear products.
pub const NV_P2F: usize = 3;
/// Pencils per slab the device capacity is chosen to force (see `build_gpu`).
const TARGET_NP: usize = 6;
const NU: f64 = 0.01;
/// Hard stop for a runaway `--seconds`.
const MAX_STEPS: usize = 400;

#[derive(Clone, Debug)]
pub struct RepCfg {
    pub workload: &'static Workload,
    pub n: usize,
    pub seed: u64,
    pub warmup: usize,
    /// Timed steps taken regardless of the budget. The energy spectrum is
    /// snapshotted after step `warmup + min_steps`.
    pub min_steps: usize,
    /// Keep stepping past `min_steps` until this much timed wall (slowest
    /// rank, summed over steps) has gone by. 0 = exactly `min_steps`.
    pub budget_s: f64,
    pub traced: bool,
}

struct Built<B> {
    backend: B,
    /// This rank's device, for `DeviceStats` deltas (GPU workloads).
    device: Option<Device>,
    plan: PencilPlan,
}

/// How the backend split the slab; all zeros but `np = 1` on the host path.
#[derive(Copy, Clone)]
struct PencilPlan {
    np: usize,
    /// Device bytes the chosen `np` needs, and the device's capacity.
    mem_required: usize,
    mem_capacity: usize,
}

fn build_cpu(
    armed: bool,
    shape: LocalShape,
    mut comm: Communicator,
    tracer: Option<&Tracer>,
) -> Built<SlabFftCpu<f64>> {
    if armed {
        comm.set_abft_checksums(true);
    }
    if let Some(t) = tracer {
        comm.set_tracer(t);
    }
    Built {
        backend: SlabFftCpu::new(shape, comm),
        device: None,
        plan: PencilPlan {
            np: 1,
            mem_required: 0,
            mem_capacity: 0,
        },
    }
}

fn build_gpu(
    mode: psdns_core::A2aMode,
    shape: LocalShape,
    comm: Communicator,
    tracer: Option<&Tracer>,
) -> Built<GpuSlabFft<f32>> {
    // Capacity 1.1 × what six pencils need: `auto_np` then lands on np = 6
    // (at N = 96) and the slab genuinely does not fit on the device — the
    // paper's out-of-core premise.
    let mem_required = GpuSlabFft::<f32>::required_bytes_per_device(shape, NV, TARGET_NP, 1);
    let mem_capacity = mem_required + mem_required / 10;
    let device = Device::new(DeviceConfig::tiny(mem_capacity));
    let mut builder = GpuSlabFft::<f32>::builder(shape)
        .comm(comm)
        .devices(vec![device.clone()])
        .nv(NV)
        .a2a_mode(mode);
    if let Some(t) = tracer {
        builder = builder.tracer(t);
    }
    let backend = builder
        .build()
        .expect("capacity was sized from required_bytes_per_device");
    let np = backend.config().np;
    Built {
        plan: PencilPlan {
            np,
            // What the chosen np needs, not what the target np would have.
            mem_required: GpuSlabFft::<f32>::required_bytes_per_device(shape, NV, np, 1),
            mem_capacity,
        },
        backend,
        device: Some(device),
    }
}

/// Builds one rank's backend from its shape and communicator, attaching the
/// tracer in the traced pass.
type BuildFn<'a, B> = dyn Fn(LocalShape, Communicator, Option<&Tracer>) -> Built<B> + Sync + 'a;

/// Forwards every `Transform3d` method to `inner`, recording a span around
/// the three that do work. Traced pass only.
struct TimedBackend<B> {
    inner: B,
    log: SpanLog,
}

impl<B> TimedBackend<B> {
    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut B) -> R) -> R {
        let id = self.log.begin();
        let t0 = Instant::now();
        let out = call(&mut self.inner);
        let t1 = Instant::now();
        self.log.end(id, name, t0, t1);
        out
    }
}

impl<T: Real, B: Transform3d<T>> Transform3d<T> for TimedBackend<B> {
    fn shape(&self) -> LocalShape {
        self.inner.shape()
    }

    fn comm(&self) -> &Communicator {
        self.inner.comm()
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer()
    }

    fn verify_schedule(&self) -> Result<(), psdns_core::Error> {
        self.inner.verify_schedule()
    }

    fn set_scan_nonfinite(&mut self, on: bool) {
        self.inner.set_scan_nonfinite(on)
    }

    fn take_nonfinite(&mut self) -> u64 {
        self.inner.take_nonfinite()
    }

    fn fourier_to_physical(&mut self, specs: &[SpectralField<T>]) -> Vec<PhysicalField<T>> {
        self.timed("f2p", |b| b.fourier_to_physical(specs))
    }

    fn physical_to_fourier(&mut self, phys: &[PhysicalField<T>]) -> Vec<SpectralField<T>> {
        self.timed("p2f", |b| b.physical_to_fourier(phys))
    }

    fn cross_product(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
    ) -> [PhysicalField<T>; 3] {
        self.timed("cross", |b| b.cross_product(up, wp))
    }
}

/// Process-wide counters read by rank 0 at both ends of the timed region.
#[derive(Copy, Clone, Default)]
struct Counters {
    utime_s: f64,
    stime_s: f64,
    alloc_bytes: u64,
    alloc_calls: u64,
    /// `DeviceStats::snapshot()` of rank 0's device.
    device: (usize, usize, usize, usize),
    /// Rank 0's tracer counters.
    a2a_calls: u64,
    bytes_network: u64,
}

impl Counters {
    fn read(device: Option<&Device>, tracer: Option<&Tracer>) -> Self {
        let (utime_s, stime_s) = procfs::cpu_times_s();
        let (alloc_bytes, alloc_calls) = crate::alloc::snapshot();
        let trace = tracer.and_then(|t| t.counters_for(0)).unwrap_or_default();
        Self {
            utime_s,
            stime_s,
            alloc_bytes,
            alloc_calls,
            device: device.map(|d| d.stats().snapshot()).unwrap_or_default(),
            a2a_calls: trace.a2a_calls,
            bytes_network: trace.bytes_network,
        }
    }

    fn delta_json(&self, start: &Counters) -> Json {
        let n = |v: f64| Json::Num(v);
        Json::obj([
            ("utime_s", n(self.utime_s - start.utime_s)),
            ("stime_s", n(self.stime_s - start.stime_s)),
            (
                "alloc_bytes",
                n((self.alloc_bytes - start.alloc_bytes) as f64),
            ),
            (
                "alloc_calls",
                n((self.alloc_calls - start.alloc_calls) as f64),
            ),
            ("bytes_h2d", n((self.device.0 - start.device.0) as f64)),
            ("bytes_d2h", n((self.device.1 - start.device.1) as f64)),
            ("copy_calls", n((self.device.2 - start.device.2) as f64)),
            (
                "kernel_launches",
                n((self.device.3 - start.device.3) as f64),
            ),
            ("a2a_calls", n((self.a2a_calls - start.a2a_calls) as f64)),
            (
                "bytes_network",
                n((self.bytes_network - start.bytes_network) as f64),
            ),
        ])
    }
}

struct RankOut {
    setup_s: f64,
    /// Rank 0 only: process CPU seconds (user + system) of each timed step.
    step_cpu_s: Vec<f64>,
    failed: usize,
    spectrum: Option<Vec<f64>>,
    /// Rank 0 only.
    counters: Option<Json>,
    /// Traced pass, rank 0 only: post-run diagnostics timings.
    diag: Option<Json>,
    spans: Vec<Span>,
    integrity_events: usize,
    plan: PencilPlan,
}

/// State the ranks of one repetition share.
struct Shared<'a> {
    cfg: &'a RepCfg,
    /// When the child process started; `setup_s` counts from here.
    t_start: Instant,
    /// Epoch of span timestamps.
    epoch: Instant,
    tracer: Option<Tracer>,
    /// Per-rank timed step durations (ms), append-only. Each rank reads all
    /// of them after the barrier that follows a step, so every rank sums
    /// the same slowest-rank times and reaches the same stop decision.
    durations: Vec<Mutex<Vec<f64>>>,
}

impl Shared<'_> {
    fn rank_ms(&self, step: usize) -> impl Iterator<Item = f64> + Clone + '_ {
        self.durations
            .iter()
            .map(move |d| d.lock().expect("durations poisoned")[step])
    }

    fn slowest_ms(&self, step: usize) -> f64 {
        self.rank_ms(step).fold(0.0, f64::max)
    }

    /// Slowest minus fastest rank.
    fn skew_ms(&self, step: usize) -> f64 {
        self.slowest_ms(step) - self.rank_ms(step).fold(f64::INFINITY, f64::min)
    }

    /// Called after a barrier with `steps_done` steps finished everywhere.
    fn done(&self, steps_done: usize) -> bool {
        if steps_done < self.cfg.min_steps {
            return false;
        }
        if steps_done >= MAX_STEPS {
            return true;
        }
        let elapsed_ms: f64 = (0..steps_done).map(|i| self.slowest_ms(i)).sum();
        elapsed_ms >= self.cfg.budget_s * 1e3
    }
}

/// Local part of the total energy is finite (a NaN anywhere poisons it).
fn state_is_finite<T: Real>(u: &[SpectralField<T>; 3]) -> bool {
    u.iter()
        .map(|f| f.data.iter().map(|c| c.norm_sqr().to_f64()).sum::<f64>())
        .sum::<f64>()
        .is_finite()
}

fn rank_main<T: Real, B: Transform3d<T>>(
    sh: &Shared,
    comm: Communicator,
    build: &BuildFn<'_, B>,
) -> RankOut {
    let cfg = sh.cfg;
    let shape = LocalShape::new(cfg.n, cfg.workload.p, comm.rank());
    // A second handle to this rank's communicator: the backend owns the
    // first, barriers and the spectrum reduction use this one.
    let world = comm.clone();
    let built = build(shape, comm, sh.tracer.as_ref());
    let mut u = random_solenoidal::<T>(shape, 4.0, cfg.seed);
    normalize_energy(&mut u, 0.5, &world);
    let ns_cfg = NsConfig {
        nu: NU,
        dt: 2e-3,
        scheme: TimeScheme::Rk2,
        forcing: Some(Forcing::new(2.5)),
        dealias: true,
        phase_shift: false,
    };
    let Built {
        backend,
        device,
        plan,
    } = built;
    if cfg.traced {
        let log = SpanLog::new(shape.rank, sh.epoch);
        let wrapped = TimedBackend {
            inner: backend,
            log: log.clone(),
        };
        let ns = NavierStokes::new(wrapped, ns_cfg, u);
        drive(sh, &world, ns, Some(log), device, plan)
    } else {
        let ns = NavierStokes::new(backend, ns_cfg, u);
        drive(sh, &world, ns, None, device, plan)
    }
}

fn drive<T: Real, B: Transform3d<T>>(
    sh: &Shared,
    world: &Communicator,
    mut ns: NavierStokes<T, B>,
    log: Option<SpanLog>,
    device: Option<Device>,
    plan: PencilPlan,
) -> RankOut {
    let cfg = sh.cfg;
    let rank = world.rank();
    let armed = cfg.workload.armed();
    if armed {
        ns.set_integrity(IntegrityConfig::armed());
    }
    let advance = |ns: &mut NavierStokes<T, B>| -> bool {
        if armed {
            ns.step_verified().is_ok()
        } else {
            ns.step();
            true
        }
    };
    let rep_span = log.as_ref().map(|l| (l.begin(), Instant::now()));

    // Warm-up: lazy plan caches, first-touch of every workspace.
    let mut failed = 0;
    for _ in 0..cfg.warmup {
        if !advance(&mut ns) {
            failed += 1;
        }
    }
    world.barrier();
    let setup_s = sh.t_start.elapsed().as_secs_f64();

    let read_counters = || (rank == 0).then(|| Counters::read(device.as_ref(), sh.tracer.as_ref()));
    let mut steps_done = 0;
    sh.durations[rank]
        .lock()
        .expect("durations poisoned")
        .reserve(MAX_STEPS);
    let mut spectrum = None;
    // Rank 0: process CPU seconds at each post-barrier instant; consecutive
    // differences are the CPU one step cost on all threads.
    let mut cpu_marks = Vec::with_capacity(MAX_STEPS + 1);
    let counters_start = read_counters();
    loop {
        world.barrier();
        if rank == 0 {
            cpu_marks.push(procfs::process_cpu_s());
        }
        if sh.done(steps_done) {
            break;
        }
        let span = log.as_ref().map(SpanLog::begin);

        let t0 = Instant::now();
        let ok = advance(&mut ns);
        let t1 = Instant::now();

        if let (Some(l), Some(id)) = (&log, span) {
            l.end(id, "step", t0, t1);
        }
        steps_done += 1;
        sh.durations[rank]
            .lock()
            .expect("durations poisoned")
            .push((t1 - t0).as_secs_f64() * 1e3);
        if !(ok && state_is_finite(&ns.u)) {
            failed += 1;
        }
        if steps_done == cfg.min_steps {
            spectrum = Some(energy_spectrum(&ns.u, world));
        }
    }
    // Every rank has passed the barrier that follows its last step.
    let counters = read_counters()
        .zip(counters_start)
        .map(|(end, start)| end.delta_json(&start));

    // Diagnostics and I/O cadence costs, once per traced repetition, after
    // the timed steps so they cannot touch a step metric.
    let diag = cfg.traced.then(|| {
        let timed = |f: &mut dyn FnMut()| {
            world.barrier();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        };
        let spectrum_ms = timed(&mut || {
            std::hint::black_box(energy_spectrum(&ns.u, world));
        });
        let stats_ms = timed(&mut || {
            std::hint::black_box(flow_stats(&ns.u, NU, world));
        });
        let mut bytes = 0;
        let checkpoint_ms = timed(&mut || {
            let fields = [&ns.u[0], &ns.u[1], &ns.u[2]];
            bytes = Checkpoint::capture(&fields, ns.time, ns.step_count)
                .encode()
                .len();
        });
        Json::obj([
            ("energy_spectrum_ms", Json::Num(spectrum_ms)),
            ("flow_stats_ms", Json::Num(stats_ms)),
            ("capture_encode_ms", Json::Num(checkpoint_ms)),
            ("checkpoint_bytes", Json::Num(bytes as f64)),
        ])
    });
    if let (Some(l), Some((id, t0))) = (&log, rep_span) {
        l.end(id, "rep", t0, Instant::now());
    }
    RankOut {
        setup_s,
        step_cpu_s: cpu_marks.windows(2).map(|w| w[1] - w[0]).collect(),
        failed,
        spectrum,
        counters,
        diag: diag.filter(|_| rank == 0),
        spans: log.map(|l| l.take()).unwrap_or_default(),
        integrity_events: ns.integrity_events.len(),
        plan,
    }
}

fn run_universe<T: Real, B: Transform3d<T>>(
    cfg: &RepCfg,
    t_start: Instant,
    build: impl Fn(LocalShape, Communicator, Option<&Tracer>) -> Built<B> + Sync,
) -> Json {
    let p = cfg.workload.p;
    let sh = Shared {
        cfg,
        t_start,
        epoch: Instant::now(),
        // Spans off, counters on: the traced pass reads the program's own
        // a2a/byte counters but records spans only from outside.
        tracer: cfg.traced.then(|| {
            let t = Tracer::new();
            t.set_enabled(false);
            t
        }),
        durations: (0..p).map(|_| Mutex::new(Vec::new())).collect(),
    };
    let outs = Universe::run(p, |comm| rank_main::<T, B>(&sh, comm, &build));

    let r0 = &outs[0];
    let steps = r0.step_cpu_s.len();
    let per_step =
        |f: &dyn Fn(usize) -> f64| Json::Arr((0..steps).map(|i| Json::Num(f(i))).collect());
    let spans: Vec<Span> = outs.iter().flat_map(|o| o.spans.iter().cloned()).collect();
    Json::obj([
        ("workload", Json::str(cfg.workload.name)),
        ("traced", Json::Bool(cfg.traced)),
        ("n", Json::Num(cfg.n as f64)),
        ("p", Json::Num(p as f64)),
        ("np", Json::Num(r0.plan.np as f64)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("mem_required", Json::Num(r0.plan.mem_required as f64)),
        ("mem_capacity", Json::Num(r0.plan.mem_capacity as f64)),
        (
            "setup_s",
            Json::Num(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max)),
        ),
        ("step_ms", per_step(&|i| sh.slowest_ms(i))),
        ("step_skew_ms", per_step(&|i| sh.skew_ms(i))),
        ("step_cpu_s", Json::nums(&r0.step_cpu_s)),
        ("attempted", Json::Num((cfg.warmup + steps) as f64)),
        (
            "failed",
            Json::Num(outs.iter().map(|o| o.failed).max().unwrap_or(0) as f64),
        ),
        (
            "spectrum",
            r0.spectrum.as_deref().map_or(Json::Null, Json::nums),
        ),
        ("counters", r0.counters.clone().unwrap_or(Json::Null)),
        ("diag", r0.diag.clone().unwrap_or(Json::Null)),
        ("integrity_events", Json::Num(r0.integrity_events as f64)),
        ("step_totals", StepTotals::of(&spans).to_json()),
        (
            "spans",
            Json::Arr(spans.iter().map(Span::to_json).collect()),
        ),
        ("vm_hwm_kb", Json::Num(procfs::vm_hwm_kb())),
    ])
}

/// Run one repetition in this process and return its record.
pub fn run(cfg: &RepCfg, t_start: Instant) -> Json {
    match cfg.workload.kind {
        Kind::Cpu { armed } => {
            run_universe::<f64, _>(cfg, t_start, move |s, c, t| build_cpu(armed, s, c, t))
        }
        Kind::Gpu { mode } => {
            run_universe::<f32, _>(cfg, t_start, move |s, c, t| build_gpu(mode, s, c, t))
        }
    }
}
