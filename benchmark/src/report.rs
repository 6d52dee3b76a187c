//! Turns child records into the declared metrics, prints them, and compares
//! two result sets.

use psdns_core::A2aMode;

use crate::decl::{Better, Kind, Workload, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::rep::{NV, NV_P2F};
use crate::spans::StepTotals;
use crate::stats::{median, tail};

/// What the parent knows about one repetition: its record, or why the
/// child produced none (rank panic, non-zero exit).
pub type RepResult = Result<Json, String>;

/// Steps, failures and the spectrum verdict summed over repetitions.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Worst relative spectrum error over the repetitions; infinite when a
    /// repetition produced no spectrum.
    pub spectrum_rel_err: f64,
}

impl Outcome {
    pub fn correct(&self, w: &Workload) -> bool {
        self.failed == 0 && self.spectrum_rel_err <= w.spectrum_bound()
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Largest relative shell error over shells that carry energy. Shells with
/// `E_ref ≤ floor·max E_ref` are skipped: they hold round-off, not flow.
pub fn spectrum_rel_err(spectrum: &[f64], reference: &[f64], floor: f64) -> f64 {
    if spectrum.len() != reference.len() {
        return f64::INFINITY;
    }
    let cut = floor * reference.iter().copied().fold(0.0, f64::max);
    reference
        .iter()
        .zip(spectrum)
        .filter(|(&r, _)| r > cut)
        .map(|(&r, &e)| {
            let err = (e - r).abs() / r;
            // A NaN shell must fail the check, not vanish in `max`.
            if err.is_nan() {
                f64::INFINITY
            } else {
                err
            }
        })
        .fold(0.0, f64::max)
}

/// Energy floor of the shells compared. f64 runs resolve twelve decades;
/// an f32 run's round-off floor sits near 1e-7² of the peak per mode, so
/// only the top six decades are flow rather than noise.
pub fn spectrum_floor(w: &Workload) -> f64 {
    if w.is_f32() {
        1e-6
    } else {
        1e-12
    }
}

/// Fold repetitions into an [`Outcome`]. A crashed repetition fails every
/// step it was going to attempt; a repetition whose spectrum is off fails
/// all of its steps.
pub fn outcome(w: &Workload, reps: &[RepResult], planned_steps: u64, reference: &[f64]) -> Outcome {
    let mut o = Outcome::default();
    for rep in reps {
        match rep {
            Err(_) => {
                o.attempted += planned_steps;
                o.failed += planned_steps;
                o.spectrum_rel_err = f64::INFINITY;
            }
            Ok(r) => {
                let attempted = r.num("attempted") as u64;
                // No snapshot → empty → length mismatch → infinite error.
                let err = spectrum_rel_err(&r.num_vec("spectrum"), reference, spectrum_floor(w));
                o.attempted += attempted;
                o.failed += if err <= w.spectrum_bound() {
                    r.num("failed") as u64
                } else {
                    attempted
                };
                o.spectrum_rel_err = o.spectrum_rel_err.max(err);
            }
        }
    }
    o
}

fn counters(r: &Json, key: &str) -> f64 {
    r.get("counters").map_or(0.0, |c| c.num(key))
}

fn ok_reps(reps: &[RepResult]) -> Vec<&Json> {
    reps.iter().filter_map(|r| r.as_ref().ok()).collect()
}

fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// What the measured pass yields for one workload.
pub struct Measured {
    /// Declared metrics, in `END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Pooled step samples (ms, slowest rank).
    pub samples: Vec<f64>,
    /// Median and tail of the pooled samples: reported, not declared —
    /// interference from the shared box dominates them (README "Bounds").
    pub step_ms_p50: f64,
    pub step_ms_tail: f64,
    pub tail_pct: f64,
}

/// End-to-end metrics of one workload from its measured repetitions.
pub fn end_to_end(n: usize, reps: &[RepResult]) -> Measured {
    let reps = ok_reps(reps);
    let samples: Vec<f64> = reps.iter().flat_map(|r| r.num_vec("step_ms")).collect();
    let cpu: Vec<f64> = reps.iter().flat_map(|r| r.num_vec("step_cpu_s")).collect();
    let steps = samples.len() as f64;
    let sum = |key: &str| reps.iter().map(|r| counters(r, key)).sum::<f64>();
    let per_rep = |key: &str| reps.iter().map(|r| r.num(key)).collect::<Vec<f64>>();
    let step_ms_min = min_of(&samples);
    let cells = (n * n * n) as f64;
    let end_to_end = vec![
        ("step_ms_min", step_ms_min),
        ("mcells_per_s", cells / (step_ms_min * 1e-3) / 1e6),
        ("cpu_s_per_step", min_of(&cpu)),
        ("alloc_mb_per_step", sum("alloc_bytes") / steps / 1e6),
        ("peak_rss_mb", median(&per_rep("vm_hwm_kb")) * 1024.0 / 1e6),
        ("setup_s", median(&per_rep("setup_s"))),
    ];
    assert!(
        end_to_end
            .iter()
            .map(|m| m.0)
            .eq(END_TO_END.iter().map(|m| m.name)),
        "end-to-end metrics out of step with decl::END_TO_END"
    );
    let (tail_pct, step_ms_tail) = tail(&samples);
    Measured {
        end_to_end,
        step_ms_p50: median(&samples),
        step_ms_tail,
        tail_pct,
        samples,
    }
}

/// Sizes the replay and the model need, recomputed from `(n, p, np)`.
struct Shape {
    n: f64,
    nxh: f64,
    my: f64,
    mz: f64,
    np: usize,
    elem_c: f64,
    elem_r: f64,
}

impl Shape {
    fn new(w: &Workload, n: usize, np: usize) -> Self {
        let real = if w.is_f32() { 4.0 } else { 8.0 };
        Self {
            n: n as f64,
            nxh: (n / 2 + 1) as f64,
            my: (n / w.p) as f64,
            mz: (n / w.p) as f64,
            np,
            elem_c: 2.0 * real,
            elem_r: real,
        }
    }

    /// Nominal flops of one variable's y + z + x transforms on one rank
    /// (5·N·log₂N per complex line, half that per real line). Computed,
    /// not counted.
    fn flops_per_variable(&self) -> f64 {
        let line = 5.0 * self.n * self.n.log2();
        line * (self.nxh * self.mz + self.nxh * self.my) + 0.5 * line * (self.my * self.n)
    }
}

/// The traced pass's children for one workload.
pub struct TracedReps<'a> {
    /// Same step count, no tracer, no wrapper: the overhead baseline.
    pub plain: &'a Json,
    pub traced: &'a Json,
    /// `slab_cpu_armed` only: an untraced `slab_cpu` repetition.
    pub unarmed: Option<&'a Json>,
}

/// Per-layer metrics of one workload, in `PER_LAYER` order.
pub fn per_layer(w: &Workload, n: usize, reps: &TracedReps) -> Vec<(&'static str, f64)> {
    let tr = reps.traced;
    let sums = StepTotals::from_json(tr.get("step_totals").unwrap_or(&Json::Null));
    let steps_per_rank = tr.num_vec("step_ms").len() as f64;
    // `sums` counts every rank's steps, so these are means over ranks too.
    let steps = sums.steps as f64;
    let ms = |ns: u64| ns as f64 * 1e-6;
    let per_call = |(total, calls): (u64, u64)| {
        if calls > 0 {
            ms(total) / calls as f64
        } else {
            0.0
        }
    };
    let per_step = |(total, _): (u64, u64)| ms(total) / steps;
    let step_ms = ms(sums.step_ns) / steps;
    let self_ms = ms(sums.self_ns) / steps;
    let transforms_ms = per_step(sums.f2p) + per_step(sums.p2f);

    let np = tr.num("np") as usize;
    let sh = Shape::new(w, n, np.max(1));
    let replay = tr.get("replay").cloned().unwrap_or(Json::Obj(vec![]));
    let rp = |key: &str| replay.num(key);
    // Replayed rate in GB/s from a computed byte count and a time in ms.
    let gbps = |bytes_key: &str, ms_key: &str| bytes_per_ms(&replay, bytes_key, ms_key) / 1e6;

    // Leaf ops of one step if nothing overlapped, from the replay.
    let calls = |(_, c): (u64, u64)| c as f64 / steps;
    let (f2p_calls, p2f_calls) = (calls(sums.f2p), calls(sums.p2f));
    let nv = NV as f64;
    let fft_f2p = nv * (rp("fft.y_c2c_ms") + rp("fft.z_c2c_ms") + rp("fft.x_c2r_ms"));
    let fft_p2f = NV_P2F as f64 * (rp("fft.x_r2c_ms") + rp("fft.z_c2c_ms") + rp("fft.y_c2c_ms"));
    let leaf_ms = match w.kind {
        Kind::Cpu { armed } => {
            // Armed collectives carry checksums; the nv = 3 exchange was
            // replayed unarmed only, so scale it by the nv = 6 ratio.
            let a2a6 = rp(if armed {
                "comm.abft_a2a_ms"
            } else {
                "comm.a2a_floor_ms"
            });
            let a2a3 = rp("comm.a2a_nv3_ms") * a2a6 / rp("comm.a2a_floor_ms");
            f2p_calls * (fft_f2p + rp("domain.pack_ms") + a2a6 + rp("domain.unpack_ms"))
                + p2f_calls * (fft_p2f + rp("domain.pack_y3_ms") + a2a3 + rp("domain.unpack_z3_ms"))
        }
        Kind::Gpu { mode } => {
            // Copies of the transforms alone: the device cross product
            // moves 6 fields in and 3 out per call on top of them.
            let field = sh.n * sh.my * sh.n * sh.elem_r;
            let cross_calls = calls(sums.cross);
            let h2d = counters(tr, "bytes_h2d") / steps_per_rank - cross_calls * 6.0 * field;
            let d2h = counters(tr, "bytes_d2h") / steps_per_rank - cross_calls * 3.0 * field;
            let copies = h2d.max(0.0) / bytes_per_ms(&replay, "bytes.pencil", "device.h2d_ms")
                + d2h.max(0.0) / bytes_per_ms(&replay, "bytes.pencil", "device.d2h_ms");
            let exchange = match mode {
                A2aMode::PerSlab => {
                    f2p_calls * rp("comm.a2a_floor_ms") + p2f_calls * rp("comm.a2a_nv3_ms")
                }
                // One post + wait per pencil; the nv = 3 direction moves
                // half the payload.
                _ => {
                    (f2p_calls + 0.5 * p2f_calls)
                        * np as f64
                        * (rp("comm.ia2a_post_ms") + rp("comm.ia2a_wait_ms"))
                }
            };
            f2p_calls * fft_f2p + p2f_calls * fft_p2f + copies + exchange
        }
    };

    let des_ratio = match w.kind {
        Kind::Gpu { mode } if per_call(sums.f2p) > 0.0 => {
            des_f2p_ms(&sh, mode, &replay) / per_call(sums.f2p)
        }
        _ => 0.0,
    };

    let fastest = |r: &Json| min_of(&r.num_vec("step_ms"));
    let plain_min = fastest(reps.plain);
    let cpu = counters(tr, "utime_s") + counters(tr, "stime_s");
    let diag = |key: &str| tr.get("diag").map_or(0.0, |d| d.num(key));
    let gpu = |v: f64| if w.is_gpu() { v } else { 0.0 };

    let fft_one_variable_ms = rp("fft.y_c2c_ms") + rp("fft.z_c2c_ms") + rp("fft.x_c2r_ms");
    let per_rank_step = |key: &str| counters(tr, key) / steps_per_rank;
    // Replayed values that go out under their replay name.
    let replayed = |name: &'static str| (name, rp(name));
    let named = vec![
        (
            "core.ns.step_ms_p50",
            median(&reps.plain.num_vec("step_ms")),
        ),
        ("core.ns.step_ms", step_ms),
        ("core.transform.f2p_ms", per_call(sums.f2p)),
        ("core.transform.p2f_ms", per_call(sums.p2f)),
        ("core.transform.cross_ms", per_call(sums.cross)),
        ("core.transform.frac", transforms_ms / step_ms),
        ("core.transform.sum_over_whole", leaf_ms / transforms_ms),
        ("core.ns.self_ms", self_ms),
        ("core.ns.self_frac", self_ms / step_ms),
        ("core.ns.allocs_per_step", per_rank_step("alloc_calls")),
        (
            "core.ns.sys_cpu_frac",
            if cpu > 0.0 {
                counters(tr, "stime_s") / cpu
            } else {
                0.0
            },
        ),
        ("core.ns.rank_skew_ms", median(&tr.num_vec("step_skew_ms"))),
        replayed("core.ops.curl_ms"),
        replayed("core.ns.project_dealias_ms"),
        replayed("core.ns.cross_host_ms"),
        replayed("fft.x_r2c_ms"),
        replayed("fft.x_c2r_ms"),
        replayed("fft.y_c2c_ms"),
        replayed("fft.z_c2c_ms"),
        (
            "fft.gflops_nominal",
            sh.flops_per_variable() / (fft_one_variable_ms * 1e-3) / 1e9,
        ),
        replayed("domain.pack_ms"),
        replayed("domain.unpack_ms"),
        // Computed bytes: every element is read once and written once.
        (
            "domain.pack_gbps",
            2.0 * gbps("bytes.a2a", "domain.pack_ms"),
        ),
        replayed("comm.a2a_floor_ms"),
        replayed("comm.ia2a_post_ms"),
        replayed("comm.ia2a_wait_ms"),
        replayed("comm.abft_a2a_ms"),
        replayed("comm.allreduce_us"),
        ("comm.a2a_calls_per_step", per_rank_step("a2a_calls")),
        ("comm.bytes_per_step", per_rank_step("bytes_network")),
        (
            "device.h2d_gbps",
            gpu(gbps("bytes.pencil", "device.h2d_ms")),
        ),
        (
            "device.d2h_gbps",
            gpu(gbps("bytes.pencil", "device.d2h_ms")),
        ),
        (
            "device.memcpy2d_gbps",
            gpu(gbps("bytes.memcpy2d", "device.memcpy2d_ms")),
        ),
        replayed("device.launch_us"),
        replayed("device.event_us"),
        ("device.bytes_h2d_per_step", per_rank_step("bytes_h2d")),
        ("device.bytes_d2h_per_step", per_rank_step("bytes_d2h")),
        ("device.copy_calls_per_step", per_rank_step("copy_calls")),
        (
            "device.kernel_launches_per_step",
            per_rank_step("kernel_launches"),
        ),
        (
            "device.mem_used_frac",
            gpu(tr.num("mem_required") / tr.num("mem_capacity").max(1.0)),
        ),
        (
            "core.integrity.overhead_ratio",
            reps.unarmed.map_or(0.0, |u| plain_min / fastest(u)),
        ),
        (
            "core.integrity.retries_per_step",
            tr.num("integrity_events") / steps_per_rank,
        ),
        (
            "core.spectrum.energy_spectrum_ms",
            diag("energy_spectrum_ms"),
        ),
        ("core.stats.flow_stats_ms", diag("flow_stats_ms")),
        (
            "core.checkpoint.capture_encode_ms",
            diag("capture_encode_ms"),
        ),
        ("core.checkpoint.bytes", diag("checkpoint_bytes")),
        ("model.des_pred_over_measured", des_ratio),
        ("trace.overhead_frac", (fastest(tr) - plain_min) / plain_min),
    ];
    assert!(
        named.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|m| m.0)),
        "per-layer metrics out of step with decl::PER_LAYER"
    );
    named
}

/// A replayed rate in bytes per millisecond.
fn bytes_per_ms(replay: &Json, bytes_key: &str, ms_key: &str) -> f64 {
    replay.num(bytes_key) / replay.num(ms_key)
}

/// `psdns_model::des::simulate_pipeline` fed the replayed durations: the
/// predicted wall of one `fourier_to_physical` (nv = 6) through the Fig. 4
/// pipeline. Phase 1 streams x-pencils (H2D → y-FFT → pack + D2H) with the
/// exchange per group; phase 2 streams y-pencils (H2D → z-FFT + x-c2r →
/// D2H) with nothing to exchange.
fn des_f2p_ms(sh: &Shape, mode: A2aMode, replay: &Json) -> f64 {
    let rp = |key: &str| replay.num(key);
    let np = sh.np;
    let npf = np as f64;
    let nv = NV as f64;
    let spectral_pencil = nv * sh.nxh * sh.n * sh.mz * sh.elem_c / npf;
    let physical_pencil = nv * sh.n * sh.my * sh.n * sh.elem_r / npf;
    let q = mode.group_size(np);
    let exchange = match mode {
        A2aMode::PerSlab => rp("comm.a2a_floor_ms"),
        _ => q as f64 * (rp("comm.ia2a_post_ms") + rp("comm.ia2a_wait_ms")),
    };
    let strided = bytes_per_ms(replay, "bytes.memcpy2d", "device.memcpy2d_ms");
    let phase1 = psdns_model::simulate_pipeline(
        np,
        q,
        spectral_pencil / strided,
        nv * rp("fft.y_c2c_ms") / npf,
        spectral_pencil / strided,
        exchange,
    );
    let phase2 = psdns_model::simulate_pipeline(
        np,
        np,
        spectral_pencil / bytes_per_ms(replay, "bytes.pencil", "device.h2d_ms"),
        nv * (rp("fft.z_c2c_ms") + rp("fft.x_c2r_ms")) / npf,
        physical_pencil / bytes_per_ms(replay, "bytes.pencil", "device.d2h_ms"),
        0.0,
    );
    phase1 + phase2
}

/// Everything reported for one workload.
pub struct WorkloadReport {
    pub workload: &'static Workload,
    pub n: usize,
    pub np: usize,
    pub outcome: Outcome,
    /// `None` when the measured pass was not run.
    pub measured: Option<Measured>,
    /// Empty when the traced pass was not run.
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadReport {
    pub fn end_to_end(&self) -> &[(&'static str, f64)] {
        self.measured.as_ref().map_or(&[], |m| &m.end_to_end)
    }

    pub fn e2e(&self, name: &str) -> Option<f64> {
        self.end_to_end().iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.per_layer.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Bytes of the fields one nonlinear evaluation touches on one rank:
    /// `NV` spectral and `NV` physical variables.
    pub fn array_bytes(&self) -> (f64, f64) {
        let sh = Shape::new(self.workload, self.n, 1);
        let nv = NV as f64;
        (
            nv * sh.nxh * sh.n * sh.mz * sh.elem_c,
            nv * sh.n * sh.my * sh.n * sh.elem_r,
        )
    }

    pub fn to_json(&self) -> Json {
        let metrics =
            |m: &[(&'static str, f64)]| Json::obj(m.iter().map(|&(k, v)| (k, Json::Num(v))));
        let (spectral, physical) = self.array_bytes();
        Json::obj([
            ("p", Json::Num(self.workload.p as f64)),
            ("np", Json::Num(self.np as f64)),
            (
                "precision",
                Json::str(if self.workload.is_f32() { "f32" } else { "f64" }),
            ),
            ("spectral_bytes_per_rank", Json::Num(spectral)),
            ("physical_bytes_per_rank", Json::Num(physical)),
            ("correct", Json::Bool(self.outcome.correct(self.workload))),
            ("attempted", Json::Num(self.outcome.attempted as f64)),
            ("failed", Json::Num(self.outcome.failed as f64)),
            ("step_fail_frac", Json::Num(self.outcome.fail_frac())),
            ("spectrum_rel_err", Json::Num(self.outcome.spectrum_rel_err)),
            ("end_to_end", metrics(self.end_to_end())),
            (
                "reported",
                self.measured.as_ref().map_or(Json::Null, |m| {
                    Json::obj([
                        ("step_ms_p50", Json::Num(m.step_ms_p50)),
                        ("step_ms_tail", Json::Num(m.step_ms_tail)),
                        ("tail_percentile", Json::Num(m.tail_pct)),
                        ("samples", Json::Num(m.samples.len() as f64)),
                        ("step_ms", Json::nums(&m.samples)),
                    ])
                }),
            ),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    pub fn print(&self) {
        let w = self.workload;
        let (spectral, physical) = self.array_bytes();
        println!(
            "\n== {} ==  N={} P={} np={} {}  per-rank fields of one nonlinear term: {:.1} MB spectral + {:.1} MB physical",
            w.name,
            self.n,
            w.p,
            self.np,
            if w.is_f32() { "f32" } else { "f64" },
            spectral / 1e6,
            physical / 1e6,
        );
        println!(
            "  correct={}  step_fail_frac={} ({}/{})  spectrum_rel_err={:.3e} (bound {:.0e})",
            self.outcome.correct(w),
            self.outcome.fail_frac(),
            self.outcome.failed,
            self.outcome.attempted,
            self.outcome.spectrum_rel_err,
            w.spectrum_bound(),
        );
        for (m, &(name, v)) in END_TO_END.iter().zip(self.end_to_end()) {
            println!("  {name:<36} {v:>14.4} {}", m.unit);
        }
        if let Some(m) = &self.measured {
            println!(
                "  {:<36} {:>14.4} ms  (reported, not gated; {} samples)",
                "step_ms_p50",
                m.step_ms_p50,
                m.samples.len()
            );
            println!(
                "  {:<36} {:>14.4} ms  (reported, not gated; p{:.0})",
                "step_ms_tail", m.step_ms_tail, m.tail_pct
            );
        }
        for (m, &(name, v)) in PER_LAYER.iter().zip(&self.per_layer) {
            println!("  {name:<36} {v:>14.4} {}", m.1);
        }
    }
}

/// The lines the report ends with, from whichever workloads were run.
pub fn derived(reports: &[WorkloadReport]) -> Vec<(String, f64)> {
    let step = |name: &str| {
        reports
            .iter()
            .find(|r| r.workload.name == name)
            .and_then(|r| r.e2e("step_ms_min"))
    };
    let mut out = Vec::new();
    let mut ratio = |label: &str, a: Option<f64>, b: Option<f64>, scale: f64| {
        if let (Some(a), Some(b)) = (a, b) {
            out.push((label.to_owned(), a / (scale * b)));
        }
    };
    ratio(
        "strong-scaling efficiency t(serial_cpu)/(2*t(slab_cpu))",
        step("serial_cpu"),
        step("slab_cpu"),
        2.0,
    );
    ratio(
        "armed/unarmed t(slab_cpu_armed)/t(slab_cpu)",
        step("slab_cpu_armed"),
        step("slab_cpu"),
        1.0,
    );
    ratio(
        "schedule ratio t(gpu_perpencil)/t(gpu_perslab)",
        step("gpu_perpencil"),
        step("gpu_perslab"),
        1.0,
    );
    for r in reports {
        // Step wall ≥ exchanges × their standalone cost (Fig. 9). The nv = 3
        // exchanges move half of the replayed nv = 6 payload, so this
        // overstates the floor by up to a third.
        let per_exchange = match r.workload.kind {
            Kind::Gpu {
                mode: A2aMode::PerPencil,
            } => r
                .layer("comm.ia2a_post_ms")
                .zip(r.layer("comm.ia2a_wait_ms"))
                .map(|(post, wait)| post + wait),
            _ => r.layer("comm.a2a_floor_ms"),
        };
        let calls = r.layer("comm.a2a_calls_per_step");
        if let (Some(floor), Some(calls), Some(step)) = (per_exchange, calls, r.e2e("step_ms_min"))
        {
            out.push((
                format!(
                    "a2a-floor share of a step, {} (calls x floor / step_ms_min)",
                    r.workload.name
                ),
                calls * floor / step,
            ));
        }
    }
    out
}

fn relative_gap(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `--compare A B`: per (end-to-end metric, workload) both medians, the
/// relative gap in the worsening direction, the bound and a verdict.
/// Between two sets of one commit a gap beyond the bound says the bound is
/// wrong, not the code: `unresolved`. Returns the table and whether every
/// row is `ok`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    use std::fmt::Write as _;
    let commit = |s: &Json| {
        s.get("env")
            .and_then(|e| e.get("git_commit"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    };
    let (ca, cb) = (commit(a), commit(b));
    let same_commit = ca == cb && ca != "unknown";
    let mut out = String::new();
    writeln!(
        out,
        "A: commit {ca}\nB: commit {cb}{}",
        if same_commit {
            "  (same commit: gaps beyond a bound are `unresolved`)"
        } else {
            ""
        }
    )
    .expect("write to String");
    writeln!(
        out,
        "{:<16} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "gap", "bound"
    )
    .expect("write to String");
    let mut all_ok = true;
    let empty: &[(String, Json)] = &[];
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            writeln!(out, "{name:<16} missing from B").expect("write to String");
            all_ok = false;
            continue;
        };
        for m in &END_TO_END {
            let value = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                continue;
            };
            let gap = relative_gap(m.better, va, vb);
            // Sets of one commit must agree in both directions.
            let exceeded = if same_commit {
                gap.abs() > m.bound
            } else {
                gap > m.bound
            };
            let verdict = match (exceeded, same_commit) {
                (false, _) => "ok",
                (true, true) => "unresolved",
                (true, false) => "REGRESSED",
            };
            all_ok &= !exceeded;
            writeln!(
                out,
                "{name:<16} {:<20} {va:>12.4} {vb:>12.4} {:>+8.2}% {:>6.0}%  {verdict}",
                m.name,
                100.0 * gap,
                100.0 * m.bound,
            )
            .expect("write to String");
        }
        for key in ["step_fail_frac", "spectrum_rel_err"] {
            writeln!(
                out,
                "{name:<16} {key:<20} {:>12.3e} {:>12.3e}",
                wa.num(key),
                wb.num(key)
            )
            .expect("write to String");
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::WORKLOADS;

    #[test]
    fn spectrum_error_skips_empty_shells_and_catches_nan() {
        let reference = [0.0, 1.0, 0.5, 1e-14];
        assert_eq!(spectrum_rel_err(&reference, &reference, 1e-12), 0.0);
        // The 1e-14 shell is under the floor: its 100 % error is ignored.
        let e = spectrum_rel_err(&[0.0, 1.0, 0.5005, 2e-14], &reference, 1e-12);
        assert!((e - 1e-3).abs() < 1e-12, "{e}");
        assert_eq!(
            spectrum_rel_err(&[0.0, f64::NAN, 0.5, 0.0], &reference, 1e-12),
            f64::INFINITY
        );
        assert_eq!(
            spectrum_rel_err(&[0.0, 1.0], &reference, 1e-12),
            f64::INFINITY
        );
    }

    #[test]
    fn crashed_or_wrong_reps_fail_all_their_steps() {
        let w = &WORKLOADS[0];
        let reference = [0.0, 1.0, 0.5];
        let good = Json::obj([
            ("attempted", Json::Num(13.0)),
            ("failed", Json::Num(0.0)),
            ("spectrum", Json::nums(&reference)),
        ]);
        let wrong = Json::obj([
            ("attempted", Json::Num(13.0)),
            ("failed", Json::Num(1.0)),
            ("spectrum", Json::nums(&[0.0, 1.1, 0.5])),
        ]);
        let o = outcome(w, &[Ok(good.clone())], 13, &reference);
        assert_eq!((o.attempted, o.failed), (13, 0));
        assert!(o.correct(w));
        let o = outcome(
            w,
            &[Ok(good), Ok(wrong), Err("exit 101".into())],
            13,
            &reference,
        );
        assert_eq!((o.attempted, o.failed), (39, 26));
        assert!(!o.correct(w));
        assert!((o.fail_frac() - 26.0 / 39.0).abs() < 1e-15);
    }

    fn set(commit: &str, step_ms: f64) -> Json {
        Json::obj([
            ("env", Json::obj([("git_commit", Json::str(commit))])),
            (
                "workloads",
                Json::obj([(
                    "slab_cpu",
                    Json::obj([(
                        "end_to_end",
                        Json::obj([
                            ("step_ms_min", Json::Num(step_ms)),
                            ("mcells_per_s", Json::Num(1000.0 / step_ms)),
                        ]),
                    )]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_verdicts() {
        let (text, ok) = compare(&set("abc", 100.0), &set("abc", 105.0));
        assert!(ok, "{text}");
        assert!(text.contains("ok") && !text.contains("REGRESSED"));
        // Same commit, beyond the bound in either direction: the bound is wrong.
        for b in [150.0, 60.0] {
            let (text, ok) = compare(&set("abc", 100.0), &set("abc", b));
            assert!(
                !ok && text.contains("unresolved") && !text.contains("REGRESSED"),
                "{text}"
            );
        }
        // Different commits: slower is a regression, faster is fine.
        let (text, ok) = compare(&set("abc", 100.0), &set("def", 150.0));
        assert!(!ok && text.contains("REGRESSED"), "{text}");
        let (text, ok) = compare(&set("abc", 100.0), &set("def", 60.0));
        assert!(ok, "{text}");
    }
}
