//! Leaf-op replay: below the `Transform3d` boundary the benchmark cannot
//! put spans inside the program (a later issue), so it replays each leaf
//! operation in isolation instead — on all ranks concurrently, at the
//! workload's own shapes, strides, precision and message sizes — and
//! reports the median of `ITERS` runs after `WARMUPS`. Each rank's median
//! is reduced with max, because a step waits for its slowest rank.
//!
//! The FFT replays use the whole-slab plan shapes of `SlabFftCpu`; the GPU
//! pipeline runs the same transforms sliced into `np` pencils, so for the
//! `gpu_*` workloads they are the nominal (un-sliced) cost.

use std::collections::BTreeMap;
use std::time::Instant;

use psdns_comm::{Communicator, Universe};
use psdns_core::{
    curl, project_and_dealias, LocalShape, PhysicalField, SlabFftCpu, SpectralField, Transform3d,
};
use psdns_device::{Copy2d, Device, DeviceConfig, Event, PinnedBuffer};
use psdns_domain::transpose::apply_chunks;
use psdns_domain::{PencilSplit, SlabTranspose};
use psdns_fft::{Complex, Direction, ManyPlan, ManyRealPlan, Real};

use crate::json::Json;
use crate::rep::{RepCfg, NV, NV_P2F};
use crate::stats::median;

const WARMUPS: usize = 3;
const ITERS: usize = 20;

fn timed_ms(op: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    op();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median of `ITERS` samples after `WARMUPS`; `sample` prepares its inputs
/// untimed and returns the wall ms of the operation alone.
fn bench(world: &Communicator, mut sample: impl FnMut() -> f64) -> f64 {
    world.barrier();
    let all: Vec<f64> = (0..WARMUPS + ITERS).map(|_| sample()).collect();
    median(&all[WARMUPS..])
}

/// Deterministic non-trivial fill in (−1, 1): transforms of zeros or of a
/// constant can take short cuts real data does not.
fn fill<T: Real>(len: usize, salt: u64) -> Vec<T> {
    let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            T::from_f64((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        })
        .collect()
}

fn fill_c<T: Real>(len: usize, salt: u64) -> Vec<Complex<T>> {
    let re = fill::<T>(len, salt);
    let im = fill::<T>(len, salt ^ 0xABCD);
    re.into_iter()
        .zip(im)
        .map(|(r, i)| Complex::new(r, i))
        .collect()
}

type Times = BTreeMap<&'static str, f64>;

fn replay_fft<T: Real>(world: &Communicator, s: LocalShape, out: &mut Times) {
    let LocalShape { n, nxh, my, mz, .. } = s;
    // The three plans `SlabFftCpu::new` builds, one variable each.
    let plan_y = ManyPlan::<T>::new(n, nxh, 1, nxh);
    let plan_z = ManyPlan::<T>::new(n, nxh * my, 1, nxh * my);
    let plan_x = ManyRealPlan::<T>::new(n, my * n, 1, n, 1, nxh);
    let scratch_len = plan_y
        .scratch_len()
        .max(plan_z.scratch_len())
        .max(plan_x.scratch_len());
    let mut scratch = vec![Complex::<T>::zero(); scratch_len];

    let zslab0 = fill_c::<T>(nxh * n * mz, 1);
    let mut zslab = zslab0.clone();
    let plane = nxh * n;
    out.insert(
        "fft.y_c2c_ms",
        bench(world, || {
            zslab.copy_from_slice(&zslab0);
            timed_ms(|| {
                for zl in 0..mz {
                    let slice = &mut zslab[zl * plane..(zl + 1) * plane];
                    plan_y.execute_with_scratch(slice, &mut scratch, Direction::Inverse);
                }
            })
        }),
    );

    let yslab0 = fill_c::<T>(nxh * my * n, 2);
    let mut yslab = yslab0.clone();
    out.insert(
        "fft.z_c2c_ms",
        bench(world, || {
            yslab.copy_from_slice(&yslab0);
            timed_ms(|| plan_z.execute_with_scratch(&mut yslab, &mut scratch, Direction::Inverse))
        }),
    );

    let reals0 = fill::<T>(my * n * n, 3);
    let mut reals = reals0.clone();
    out.insert(
        "fft.x_c2r_ms",
        bench(world, || {
            timed_ms(|| plan_x.inverse_with_scratch(&yslab0, &mut reals, &mut scratch))
        }),
    );
    out.insert(
        "fft.x_r2c_ms",
        bench(world, || {
            timed_ms(|| plan_x.forward_with_scratch(&reals0, &mut yslab, &mut scratch))
        }),
    );
}

fn replay_domain<T: Real>(world: &Communicator, s: LocalShape, out: &mut Times) {
    let t6 = SlabTranspose::new(s.slab(), s.nxh, NV);
    let t3 = SlabTranspose::new(s.slab(), s.nxh, NV_P2F);
    let zslabs: Vec<Vec<Complex<T>>> = (0..NV)
        .map(|v| fill_c(t6.zslab_len(), 10 + v as u64))
        .collect();
    let mut buf6 = vec![Complex::<T>::zero(); t6.buf_len()];
    let mut buf3 = vec![Complex::<T>::zero(); t3.buf_len()];
    let mut yslab = fill_c::<T>(t6.yslab_len(), 20);
    let mut zslab = vec![Complex::<T>::zero(); t6.zslab_len()];

    // Forward transpose of `fourier_to_physical` (nv = 6).
    out.insert(
        "domain.pack_ms",
        bench(world, || {
            timed_ms(|| {
                for d in 0..s.p {
                    for (v, w) in zslabs.iter().enumerate() {
                        apply_chunks(&t6.pack_from_zslab(d, v, 0..s.nxh), w, &mut buf6);
                    }
                }
            })
        }),
    );
    out.insert(
        "domain.unpack_ms",
        bench(world, || {
            timed_ms(|| {
                for v in 0..NV {
                    for src in 0..s.p {
                        apply_chunks(&t6.unpack_to_yslab(src, v, 0..s.my), &buf6, &mut yslab);
                    }
                }
            })
        }),
    );
    // Backward transpose of `physical_to_fourier` (nv = 3); only the sum in
    // `core.transform.sum_over_whole` uses these two.
    out.insert(
        "domain.pack_y3_ms",
        bench(world, || {
            timed_ms(|| {
                for v in 0..NV_P2F {
                    for d in 0..s.p {
                        apply_chunks(&t3.pack_from_yslab(d, v, 0..s.my), &yslab, &mut buf3);
                    }
                }
            })
        }),
    );
    out.insert(
        "domain.unpack_z3_ms",
        bench(world, || {
            timed_ms(|| {
                for v in 0..NV_P2F {
                    for src in 0..s.p {
                        apply_chunks(&t3.unpack_to_zslab(src, v, 0..s.nxh), &buf3, &mut zslab);
                    }
                }
            })
        }),
    );
}

/// Elements of one pencil's exchange (all peers, all variables).
fn pencil_payload(s: LocalShape, np: usize) -> usize {
    s.p * NV * PencilSplit::new(s.nxh, np).max_width() * s.my * s.mz
}

fn replay_comm<T: Real>(world: &Communicator, s: LocalShape, np: usize, out: &mut Times) {
    let a2a6 = fill_c::<T>(SlabTranspose::new(s.slab(), s.nxh, NV).buf_len(), 30);
    let a2a3 = &a2a6[..SlabTranspose::new(s.slab(), s.nxh, NV_P2F).buf_len()];
    // The Fig. 9 floor: one transpose's payload through the bare collective.
    out.insert(
        "comm.a2a_floor_ms",
        bench(world, || {
            timed_ms(|| {
                std::hint::black_box(world.alltoall(&a2a6));
            })
        }),
    );
    out.insert(
        "comm.a2a_nv3_ms",
        bench(world, || {
            timed_ms(|| {
                std::hint::black_box(world.alltoall(a2a3));
            })
        }),
    );

    let mut checked = world.clone();
    checked.set_abft_checksums(true);
    out.insert(
        "comm.abft_a2a_ms",
        bench(world, || {
            timed_ms(|| {
                std::hint::black_box(checked.alltoall(&a2a6));
            })
        }),
    );

    let pencil = &a2a6[..pencil_payload(s, np)];
    let mut wait_ms = Vec::with_capacity(WARMUPS + ITERS);
    out.insert(
        "comm.ia2a_post_ms",
        bench(world, || {
            let mut req = None;
            let post = timed_ms(|| req = Some(world.ialltoall(pencil)));
            let req = req.expect("posted above");
            wait_ms.push(timed_ms(|| {
                std::hint::black_box(req.wait());
            }));
            post
        }),
    );
    out.insert("comm.ia2a_wait_ms", median(&wait_ms[WARMUPS..]));

    // The size of the solver's verdict vote (5 sums) and forcing reductions.
    let sums = [1.0f64, 2.0, 3.0, 4.0, 5.0];
    out.insert(
        "comm.allreduce_us",
        1e3 * bench(world, || {
            timed_ms(|| {
                std::hint::black_box(world.allreduce_vec(&sums, |a, b| a + b));
            })
        }),
    );
}

fn replay_device<T: Real>(world: &Communicator, s: LocalShape, np: usize, out: &mut Times) {
    let xw = PencilSplit::new(s.nxh, np).max_width();
    let rows = s.n * s.mz;
    let pencil = NV * xw * rows;
    let elem = std::mem::size_of::<Complex<T>>();
    let device = Device::new(DeviceConfig::tiny(4 * pencil * elem));
    let xfer = device.create_stream("replay-xfer");
    let comp = device.create_stream("replay-comp");
    let host = PinnedBuffer::from_vec(fill_c::<T>(pencil, 40));
    let host_slab = PinnedBuffer::from_vec(fill_c::<T>(s.spec_len(), 41));
    let dev = device
        .alloc::<Complex<T>>(pencil)
        .expect("replay device sized for two pencils");
    let sync = |st: &psdns_device::Stream| st.synchronize().expect("replay stream");

    out.insert(
        "device.h2d_ms",
        bench(world, || {
            timed_ms(|| {
                xfer.memcpy_h2d_async(&host, 0, &dev, 0, pencil);
                sync(&xfer);
            })
        }),
    );
    out.insert(
        "device.d2h_ms",
        bench(world, || {
            timed_ms(|| {
                xfer.memcpy_d2h_async(&dev, 0, &host, 0, pencil);
                sync(&xfer);
            })
        }),
    );
    // The pipeline's strided gather of one variable's x-pencil (Fig. 6).
    let gather = Copy2d {
        width: xw,
        height: rows,
        src_offset: 0,
        src_pitch: s.nxh,
        dst_offset: 0,
        dst_pitch: xw,
    };
    out.insert(
        "device.memcpy2d_ms",
        bench(world, || {
            timed_ms(|| {
                xfer.memcpy2d_h2d_async(&host_slab, &dev, gather);
                sync(&xfer);
            })
        }),
    );
    out.insert(
        "device.launch_us",
        1e3 * bench(world, || {
            timed_ms(|| {
                comp.launch("replay-empty", || {});
                sync(&comp);
            })
        }),
    );
    let event = Event::new();
    out.insert(
        "device.event_us",
        1e3 * bench(world, || {
            timed_ms(|| {
                xfer.record(&event);
                comp.wait_event(&event);
                sync(&comp);
            })
        }),
    );
    out.insert("bytes.pencil", (pencil * elem) as f64);
    out.insert("bytes.memcpy2d", (xw * rows * elem) as f64);
}

fn replay_core<T: Real>(world: &Communicator, s: LocalShape, out: &mut Times) {
    let spec = |salt| SpectralField::from_data(s, fill_c::<T>(s.spec_len(), salt));
    let mut u = [spec(50), spec(51), spec(52)];
    out.insert(
        "core.ops.curl_ms",
        bench(world, || {
            timed_ms(|| {
                std::hint::black_box(curl(&u));
            })
        }),
    );
    out.insert(
        "core.ns.project_dealias_ms",
        bench(world, || timed_ms(|| project_and_dealias(&mut u, true))),
    );
    // `SlabFftCpu` keeps the trait's default (host) cross product.
    let mut host = SlabFftCpu::<T>::new(s, world.clone());
    let phys = |salt| PhysicalField::from_data(s, fill::<T>(s.phys_len(), salt));
    let up = [phys(60), phys(61), phys(62)];
    let wp = [phys(63), phys(64), phys(65)];
    out.insert(
        "core.ns.cross_host_ms",
        bench(world, || {
            timed_ms(|| {
                std::hint::black_box(host.cross_product(&up, &wp));
            })
        }),
    );
}

fn replay_rank<T: Real>(world: &Communicator, cfg: &RepCfg, np: usize) -> Times {
    let s = LocalShape::new(cfg.n, cfg.workload.p, world.rank());
    let mut out = Times::new();
    replay_fft::<T>(world, s, &mut out);
    replay_domain::<T>(world, s, &mut out);
    replay_comm::<T>(world, s, np, &mut out);
    replay_core::<T>(world, s, &mut out);
    if cfg.workload.is_gpu() {
        replay_device::<T>(world, s, np, &mut out);
    }
    out.insert("bytes.a2a", {
        let t = SlabTranspose::new(s.slab(), s.nxh, NV);
        (t.buf_len() * std::mem::size_of::<Complex<T>>()) as f64
    });
    out
}

/// Replay every leaf op at the workload's shapes; returns `name → value`
/// (times in ms unless the name says `_us`; `bytes.*` are computed sizes).
pub fn run(cfg: &RepCfg, np: usize) -> Json {
    let per_rank = if cfg.workload.is_f32() {
        Universe::run(cfg.workload.p, |comm| replay_rank::<f32>(&comm, cfg, np))
    } else {
        Universe::run(cfg.workload.p, |comm| replay_rank::<f64>(&comm, cfg, np))
    };
    let mut slowest = Times::new();
    for times in per_rank {
        for (name, v) in times {
            let e = slowest.entry(name).or_insert(v);
            *e = e.max(v);
        }
    }
    Json::obj(slowest.into_iter().map(|(k, v)| (k, Json::Num(v))))
}
