//! What the benchmark declares: workloads and metrics, by name. The root
//! `BENCHMARK.json` says the same thing to the driver; `--smoke` and a unit
//! test fail if the two ever differ, in either direction.

use psdns_core::A2aMode;

/// Default `--seed`; the committed golden spectrum is for this seed.
pub const DEFAULT_SEED: u64 = 2019;
/// Grid size of every workload: 96 = 2⁵·3 is ≥ 64 (ROADMAP) and exercises
/// the radix-3 codelets the paper's 18432 = 2¹¹·3² needs.
pub const N: usize = 96;
pub const WARMUP_STEPS: usize = 3;
/// Timed steps every repetition takes at least; the spectrum is checked
/// after the last of them (step 13 = 3 warm-up + 10 timed).
pub const MIN_STEPS: usize = 10;
/// Child processes (cold set-ups) pooled into one measured run.
pub const REPS: usize = 3;
/// Default `--seconds`: timed wall per run, shared by the repetitions.
pub const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Kind {
    /// `SlabFftCpu<f64>`; `armed` adds integrity monitors, `step_verified`
    /// and checksummed collectives.
    Cpu { armed: bool },
    /// `GpuSlabFft<f32>` on one simulated device per rank, out of core.
    Gpu { mode: A2aMode },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub p: usize,
    pub kind: Kind,
    pub why: &'static str,
}

impl Workload {
    pub fn is_f32(&self) -> bool {
        matches!(self.kind, Kind::Gpu { .. })
    }

    pub fn is_gpu(&self) -> bool {
        self.is_f32()
    }

    pub fn armed(&self) -> bool {
        matches!(self.kind, Kind::Cpu { armed: true })
    }

    /// Absolute bound on `spectrum_rel_err` against the f64 reference.
    pub fn spectrum_bound(&self) -> f64 {
        if self.is_f32() {
            1e-3
        } else {
            1e-9
        }
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serial_cpu",
        p: 1,
        kind: Kind::Cpu { armed: false },
        why: "Plain single-threaded baseline: no peer, no device; fft kernels and core.ns pointwise passes do the work, so a comm/device change must not move it.",
    },
    Workload {
        name: "slab_cpu",
        p: 2,
        kind: Kind::Cpu { armed: false },
        why: "Reference distributed step: blocking alltoall, host pack/unpack, rank skew; with serial_cpu it gives strong-scaling efficiency.",
    },
    Workload {
        name: "slab_cpu_armed",
        p: 2,
        kind: Kind::Cpu { armed: true },
        why: "Same comm/core.ns layers used the other way (checksummed collectives, monitors, snapshot, verdict vote): a step speed-up that costs the monitors shows here.",
    },
    Workload {
        name: "gpu_perpencil",
        p: 2,
        kind: Kind::Gpu {
            mode: A2aMode::PerPencil,
        },
        why: "The paper's headline path (Fig. 4, configs A/B): out-of-core f32 pipeline, one ialltoall per pencil; device streams and gpu_pipeline sequencing dominate.",
    },
    Workload {
        name: "gpu_perslab",
        p: 2,
        kind: Kind::Gpu {
            mode: A2aMode::PerSlab,
        },
        why: "Same device/gpu_pipeline/comm layers with one bulk exchange (config C): a change to one schedule that costs the other shows in the pair.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Measured with tracing off. Bounds come from the spreads recorded in
/// README.md ("Bounds"). The step statistics are those of the *fastest*
/// timed step: interference on the shared box is one-sided and episodic, and
/// the minimum is the only step statistic that repeats there.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "step_ms_min",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mcells_per_s",
        unit: "Mcell/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_step",
        unit: "core-s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "alloc_mb_per_step",
        unit: "MB",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// `(name, unit, better)`; traced pass only, no bounds. A metric of a layer
/// the workload does not exercise (device.* on CPU workloads) reads 0.
pub const PER_LAYER: [(&str, &str, Better); 48] = [
    ("core.ns.step_ms_p50", "ms", Lower),
    ("core.ns.step_ms", "ms", Lower),
    ("core.transform.f2p_ms", "ms", Lower),
    ("core.transform.p2f_ms", "ms", Lower),
    ("core.transform.cross_ms", "ms", Lower),
    ("core.transform.frac", "frac", Lower),
    ("core.transform.sum_over_whole", "ratio", Higher),
    ("core.ns.self_ms", "ms", Lower),
    ("core.ns.self_frac", "frac", Lower),
    ("core.ns.allocs_per_step", "count", Lower),
    ("core.ns.sys_cpu_frac", "frac", Lower),
    ("core.ns.rank_skew_ms", "ms", Lower),
    ("core.ops.curl_ms", "ms", Lower),
    ("core.ns.project_dealias_ms", "ms", Lower),
    ("core.ns.cross_host_ms", "ms", Lower),
    ("fft.x_r2c_ms", "ms", Lower),
    ("fft.x_c2r_ms", "ms", Lower),
    ("fft.y_c2c_ms", "ms", Lower),
    ("fft.z_c2c_ms", "ms", Lower),
    ("fft.gflops_nominal", "Gflop/s", Higher),
    ("domain.pack_ms", "ms", Lower),
    ("domain.unpack_ms", "ms", Lower),
    ("domain.pack_gbps", "GB/s", Higher),
    ("comm.a2a_floor_ms", "ms", Lower),
    ("comm.ia2a_post_ms", "ms", Lower),
    ("comm.ia2a_wait_ms", "ms", Lower),
    ("comm.abft_a2a_ms", "ms", Lower),
    ("comm.allreduce_us", "us", Lower),
    ("comm.a2a_calls_per_step", "count", Lower),
    ("comm.bytes_per_step", "B", Lower),
    ("device.h2d_gbps", "GB/s", Higher),
    ("device.d2h_gbps", "GB/s", Higher),
    ("device.memcpy2d_gbps", "GB/s", Higher),
    ("device.launch_us", "us", Lower),
    ("device.event_us", "us", Lower),
    ("device.bytes_h2d_per_step", "B", Lower),
    ("device.bytes_d2h_per_step", "B", Lower),
    ("device.copy_calls_per_step", "count", Lower),
    ("device.kernel_launches_per_step", "count", Lower),
    ("device.mem_used_frac", "frac", Higher),
    ("core.integrity.overhead_ratio", "ratio", Lower),
    ("core.integrity.retries_per_step", "count", Lower),
    ("core.spectrum.energy_spectrum_ms", "ms", Lower),
    ("core.stats.flow_stats_ms", "ms", Lower),
    ("core.checkpoint.capture_encode_ms", "ms", Lower),
    ("core.checkpoint.bytes", "B", Lower),
    ("model.des_pred_over_measured", "ratio", Higher),
    ("trace.overhead_frac", "frac", Lower),
];

#[cfg(test)]
mod tests {
    use crate::json::Json;

    /// `BENCHMARK.json` and the tables above declare the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let b = Json::parse(&text).expect("parse BENCHMARK.json");
        crate::check_declared(&b).unwrap();
    }
}
