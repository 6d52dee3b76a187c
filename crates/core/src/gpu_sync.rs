//! The basic *synchronous* GPU algorithm of paper Fig. 2: the whole slab is
//! copied to the device at once, transformed, packed on the GPU, copied back
//! for a blocking all-to-all, and so on. It requires the entire slab (plus
//! work buffers) to fit in device memory — the limitation that motivates the
//! batched asynchronous algorithm of §3.4 ([`crate::GpuSlabFft`]).

use std::sync::Arc;

use psdns_comm::Communicator;
use psdns_device::{Copy2d, Device, PinnedBuffer, Stream};
use psdns_domain::transpose::SlabTranspose;
use psdns_fft::{Complex, Direction, ManyPlan, ManyRealPlan, Real};

use crate::error::Error;
use crate::field::{LocalShape, PhysicalField, SpectralField, Transform3d};

/// Synchronous whole-slab GPU transform (Fig. 2).
pub struct GpuSyncSlabFft<T: Real> {
    shape: LocalShape,
    comm: Communicator,
    device: Device,
    stream: Stream,
    plan_y: Arc<ManyPlan<T>>,
    plan_z: Arc<ManyPlan<T>>,
    /// Batched x r2c/c2r over one variable's whole slab (`my·n` dense
    /// lines) per call — the cuFFT-style many-plan the paper uses on device.
    plan_x: Arc<ManyRealPlan<T>>,
    /// Fused non-finite staging scan of the D2H'd send buffers (see
    /// [`Transform3d::set_scan_nonfinite`]).
    scan_nonfinite: bool,
    nonfinite_count: u64,
}

impl<T: Real> GpuSyncSlabFft<T> {
    pub fn new(shape: LocalShape, comm: Communicator, device: Device) -> Self {
        let LocalShape { n, nxh, my, .. } = shape;
        let stream = device.create_stream(&format!("sync-r{}", shape.rank));
        Self {
            shape,
            comm,
            device,
            stream,
            plan_y: Arc::new(ManyPlan::new(n, nxh, 1, nxh)),
            plan_z: Arc::new(ManyPlan::new(n, nxh * my, 1, nxh * my)),
            plan_x: Arc::new(ManyRealPlan::new(n, my * n, 1, n, 1, nxh)),
            scan_nonfinite: false,
            nonfinite_count: 0,
        }
    }

    /// Seeded corruption injection plus (when armed) the fused non-finite
    /// scan, applied to a D2H'd send buffer on its way into an all-to-all.
    fn stage_send(&mut self, class: &str, send: &mut [Complex<T>]) {
        crate::integrity::inject_buf_flip(&self.comm, class, send);
        if self.scan_nonfinite {
            self.nonfinite_count += crate::integrity::count_nonfinite_buf(send);
        }
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Attach a tracer: wires a rank-tagged handle into this backend's
    /// communicator (all-to-all spans) and its device (stream span
    /// bridging), mirroring [`crate::GpuFftBuilder::tracer`].
    pub fn with_tracer(mut self, tracer: &psdns_trace::Tracer) -> Self {
        self.comm.set_tracer(tracer);
        let rank_tracer = self.comm.tracer().cloned().expect("tracer just attached");
        self.device.attach_tracer(&rank_tracer);
        self
    }

    /// Fallible variant: surfaces
    /// [`Error::Device`]`(`[`psdns_device::DeviceError::OutOfMemory`]`)` when
    /// the slab does not fit on the device (the paper's motivation for
    /// batching).
    pub fn try_fourier_to_physical(
        &mut self,
        specs: &[SpectralField<T>],
    ) -> Result<Vec<PhysicalField<T>>, Error> {
        let s = self.shape;
        let mut out: Vec<_> = specs.iter().map(|_| PhysicalField::zeros(s)).collect();
        self.try_fourier_to_physical_into(specs, &mut out)?;
        Ok(out)
    }

    /// [`Self::try_fourier_to_physical`] into caller-owned fields, which are
    /// written only once the whole transform has succeeded.
    pub fn try_fourier_to_physical_into(
        &mut self,
        specs: &[SpectralField<T>],
        out: &mut [PhysicalField<T>],
    ) -> Result<(), Error> {
        let nv = specs.len();
        assert!(nv > 0);
        assert_eq!(out.len(), nv, "one output field per input");
        let s = self.shape;
        let t = SlabTranspose::new(s.slab(), s.nxh, nv);
        let (zlen, ylen, plen) = (t.zslab_len(), t.yslab_len(), s.phys_len());

        // Host staging (pinned, as required for async copies).
        let mut host_spec = Vec::with_capacity(nv * zlen);
        for f in specs {
            assert_eq!(f.shape, s);
            host_spec.extend_from_slice(&f.data);
        }
        let host_spec = PinnedBuffer::from_vec(host_spec);
        let host_send = PinnedBuffer::<Complex<T>>::new(t.buf_len());
        let host_recv = PinnedBuffer::<Complex<T>>::new(t.buf_len());
        let host_phys = PinnedBuffer::<T>::new(nv * plen);

        // Device buffers for the whole slab — this is where Fig. 2 fails at
        // large N and why Fig. 4 exists.
        let dev_spec = self.device.alloc::<Complex<T>>(nv * zlen)?;
        let dev_pack = self.device.alloc::<Complex<T>>(t.buf_len())?;
        let dev_yslab = self.device.alloc::<Complex<T>>(nv * ylen)?;
        let dev_phys = self.device.alloc::<T>(nv * plen)?;

        // H2D of the full slab.
        self.stream
            .memcpy_h2d_async(&host_spec, 0, &dev_spec, 0, nv * zlen);

        // y-inverse on the device.
        let (plan_y, buf, shape) = (Arc::clone(&self.plan_y), dev_spec.clone(), s);
        self.stream.launch("fft-y-inverse", move || {
            let mut d = buf.lock_mut();
            let plane = shape.nxh * shape.n;
            let mut scratch = vec![Complex::<T>::zero(); plan_y.scratch_len()];
            for v in 0..nv {
                for zl in 0..shape.mz {
                    let base = v * plane * shape.mz + zl * plane;
                    plan_y.execute_with_scratch(
                        &mut d[base..base + plane],
                        &mut scratch,
                        Direction::Inverse,
                    );
                }
            }
        });

        // Pack on the GPU (the fastest option found in §3.3), then D2H.
        let (src, dst) = (dev_spec.clone(), dev_pack.clone());
        self.stream.launch("pack-zslab", move || {
            let a = src.lock();
            let mut b = dst.lock_mut();
            for d in 0..shape.p {
                for v in 0..nv {
                    for (so, dofs, len) in t.pack_from_zslab(d, v, 0..shape.nxh) {
                        let so = so + v * zlen;
                        b[dofs..dofs + len].copy_from_slice(&a[so..so + len]);
                    }
                }
            }
        });
        self.stream
            .memcpy_d2h_async(&dev_pack, 0, &host_send, 0, t.buf_len());
        self.stream.synchronize()?;

        // Blocking all-to-all on the host (Fig. 2 has no overlap).
        let mut send = host_send.snapshot();
        self.stage_send("z2y", &mut send);
        let recv = self.comm.alltoall(&send);
        host_recv.write_from(&recv);

        // H2D of the transposed data, unpack on the device.
        self.stream
            .memcpy_h2d_async(&host_recv, 0, &dev_pack, 0, t.buf_len());
        let (src, dst) = (dev_pack.clone(), dev_yslab.clone());
        self.stream.launch("unpack-yslab", move || {
            let a = src.lock();
            let mut b = dst.lock_mut();
            for srcr in 0..shape.p {
                for v in 0..nv {
                    for (so, dofs, len) in t.unpack_to_yslab(srcr, v, 0..shape.my) {
                        let dofs = dofs + v * ylen;
                        b[dofs..dofs + len].copy_from_slice(&a[so..so + len]);
                    }
                }
            }
        });

        // z-inverse then x complex-to-real.
        let (plan_z, buf) = (Arc::clone(&self.plan_z), dev_yslab.clone());
        self.stream.launch("fft-z-inverse", move || {
            let mut d = buf.lock_mut();
            let mut scratch = vec![Complex::<T>::zero(); plan_z.scratch_len()];
            for v in 0..nv {
                let base = v * ylen;
                plan_z.execute_with_scratch(
                    &mut d[base..base + ylen],
                    &mut scratch,
                    Direction::Inverse,
                );
            }
        });
        let (plan_x, cin, rout) = (
            Arc::clone(&self.plan_x),
            dev_yslab.clone(),
            dev_phys.clone(),
        );
        self.stream.launch("fft-x-c2r", move || {
            let a = cin.lock();
            let mut b = rout.lock_mut();
            let mut scratch = vec![Complex::<T>::zero(); plan_x.scratch_len()];
            // Batched c2r: one call per variable covers every (yl, z) line.
            for v in 0..nv {
                plan_x.inverse_with_scratch(
                    &a[v * ylen..(v + 1) * ylen],
                    &mut b[v * plen..(v + 1) * plen],
                    &mut scratch,
                );
            }
        });
        self.stream
            .memcpy_d2h_async(&dev_phys, 0, &host_phys, 0, nv * plen);
        self.stream.synchronize()?;

        let flat = host_phys.lock();
        for (f, staged) in out.iter_mut().zip(flat.chunks_exact(plen)) {
            f.data.copy_from_slice(staged);
        }
        Ok(())
    }

    /// Fallible inverse direction.
    pub fn try_physical_to_fourier(
        &mut self,
        phys: &[PhysicalField<T>],
    ) -> Result<Vec<SpectralField<T>>, Error> {
        let s = self.shape;
        let mut out: Vec<_> = phys.iter().map(|_| SpectralField::zeros(s)).collect();
        self.try_physical_to_fourier_into(phys, &mut out)?;
        Ok(out)
    }

    /// [`Self::try_physical_to_fourier`] into caller-owned fields, which are
    /// written only once the whole transform has succeeded.
    pub fn try_physical_to_fourier_into(
        &mut self,
        phys: &[PhysicalField<T>],
        out: &mut [SpectralField<T>],
    ) -> Result<(), Error> {
        let nv = phys.len();
        assert!(nv > 0);
        assert_eq!(out.len(), nv, "one output field per input");
        let s = self.shape;
        let t = SlabTranspose::new(s.slab(), s.nxh, nv);
        let (zlen, ylen, plen) = (t.zslab_len(), t.yslab_len(), s.phys_len());

        let mut host_in = Vec::with_capacity(nv * plen);
        for f in phys {
            assert_eq!(f.shape, s);
            host_in.extend_from_slice(&f.data);
        }
        let host_phys = PinnedBuffer::from_vec(host_in);
        let host_send = PinnedBuffer::<Complex<T>>::new(t.buf_len());
        let host_recv = PinnedBuffer::<Complex<T>>::new(t.buf_len());
        let host_spec = PinnedBuffer::<Complex<T>>::new(nv * zlen);

        let dev_phys = self.device.alloc::<T>(nv * plen)?;
        let dev_yslab = self.device.alloc::<Complex<T>>(nv * ylen)?;
        let dev_pack = self.device.alloc::<Complex<T>>(t.buf_len())?;
        let dev_spec = self.device.alloc::<Complex<T>>(nv * zlen)?;

        self.stream
            .memcpy_h2d_async(&host_phys, 0, &dev_phys, 0, nv * plen);

        // x real-to-complex, z-forward.
        let shape = s;
        let (plan_x, rin, cout) = (
            Arc::clone(&self.plan_x),
            dev_phys.clone(),
            dev_yslab.clone(),
        );
        self.stream.launch("fft-x-r2c", move || {
            let a = rin.lock();
            let mut b = cout.lock_mut();
            let mut scratch = vec![Complex::<T>::zero(); plan_x.scratch_len()];
            // Batched r2c: one call per variable covers every (yl, z) line.
            for v in 0..nv {
                plan_x.forward_with_scratch(
                    &a[v * plen..(v + 1) * plen],
                    &mut b[v * ylen..(v + 1) * ylen],
                    &mut scratch,
                );
            }
        });
        let (plan_z, buf) = (Arc::clone(&self.plan_z), dev_yslab.clone());
        self.stream.launch("fft-z-forward", move || {
            let mut d = buf.lock_mut();
            let mut scratch = vec![Complex::<T>::zero(); plan_z.scratch_len()];
            for v in 0..nv {
                let base = v * ylen;
                plan_z.execute_with_scratch(
                    &mut d[base..base + ylen],
                    &mut scratch,
                    Direction::Forward,
                );
            }
        });

        // Pack, D2H, all-to-all.
        let (srcb, dstb) = (dev_yslab.clone(), dev_pack.clone());
        self.stream.launch("pack-yslab", move || {
            let a = srcb.lock();
            let mut b = dstb.lock_mut();
            for d in 0..shape.p {
                for v in 0..nv {
                    for (so, dofs, len) in t.pack_from_yslab(d, v, 0..shape.my) {
                        let so = so + v * ylen;
                        b[dofs..dofs + len].copy_from_slice(&a[so..so + len]);
                    }
                }
            }
        });
        self.stream
            .memcpy_d2h_async(&dev_pack, 0, &host_send, 0, t.buf_len());
        self.stream.synchronize()?;
        let mut send = host_send.snapshot();
        self.stage_send("y2z", &mut send);
        let recv = self.comm.alltoall(&send);
        host_recv.write_from(&recv);

        // H2D, unpack, y-forward, D2H.
        self.stream
            .memcpy_h2d_async(&host_recv, 0, &dev_pack, 0, t.buf_len());
        let (srcb, dstb) = (dev_pack.clone(), dev_spec.clone());
        self.stream.launch("unpack-zslab", move || {
            let a = srcb.lock();
            let mut b = dstb.lock_mut();
            for srcr in 0..shape.p {
                for v in 0..nv {
                    for (so, dofs, len) in t.unpack_to_zslab(srcr, v, 0..shape.nxh) {
                        let dofs = dofs + v * zlen;
                        b[dofs..dofs + len].copy_from_slice(&a[so..so + len]);
                    }
                }
            }
        });
        let (plan_y, buf) = (Arc::clone(&self.plan_y), dev_spec.clone());
        self.stream.launch("fft-y-forward", move || {
            let mut d = buf.lock_mut();
            let plane = shape.nxh * shape.n;
            let mut scratch = vec![Complex::<T>::zero(); plan_y.scratch_len()];
            for v in 0..nv {
                for zl in 0..shape.mz {
                    let base = v * plane * shape.mz + zl * plane;
                    plan_y.execute_with_scratch(
                        &mut d[base..base + plane],
                        &mut scratch,
                        Direction::Forward,
                    );
                }
            }
        });
        self.stream
            .memcpy_d2h_async(&dev_spec, 0, &host_spec, 0, nv * zlen);
        self.stream.synchronize()?;

        let flat = host_spec.lock();
        for (f, staged) in out.iter_mut().zip(flat.chunks_exact(zlen)) {
            f.data.copy_from_slice(staged);
        }
        Ok(())
    }
}

impl<T: Real> Transform3d<T> for GpuSyncSlabFft<T> {
    fn shape(&self) -> LocalShape {
        self.shape
    }

    fn comm(&self) -> &Communicator {
        &self.comm
    }

    fn set_scan_nonfinite(&mut self, on: bool) {
        self.scan_nonfinite = on;
    }

    fn take_nonfinite(&mut self) -> u64 {
        std::mem::take(&mut self.nonfinite_count)
    }

    fn fourier_to_physical_into(
        &mut self,
        specs: &[SpectralField<T>],
        out: &mut [PhysicalField<T>],
    ) {
        self.try_fourier_to_physical_into(specs, out)
            .expect("slab does not fit in device memory — use GpuSlabFft (batched)")
    }

    fn physical_to_fourier_into(
        &mut self,
        phys: &[PhysicalField<T>],
        out: &mut [SpectralField<T>],
    ) {
        self.try_physical_to_fourier_into(phys, out)
            .expect("slab does not fit in device memory — use GpuSlabFft (batched)")
    }

    fn cross_product_into(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
        out: &mut [PhysicalField<T>; 3],
    ) {
        crate::field::host_cross_product_into(&self.comm, up, wp, out);
    }
}

// A small helper so the pack kernels can reuse the chunk math without
// recomputing `Copy2d` shapes; kept for the benchmark harness.
#[allow(dead_code)]
pub(crate) fn whole_slab_copy(len: usize) -> Copy2d {
    Copy2d::linear(len, 0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_fft::SlabFftCpu;
    use psdns_comm::Universe;
    use psdns_device::DeviceConfig;

    #[test]
    fn matches_cpu_backend() {
        let n = 8;
        let p = 2;
        let nv = 2;
        let errs = Universe::run(p, move |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let device = Device::new(DeviceConfig::tiny(1 << 22));
            let mut gpu = GpuSyncSlabFft::<f64>::new(shape, comm.clone(), device);
            let mut cpu = SlabFftCpu::<f64>::new(shape, comm);

            let phys: Vec<PhysicalField<f64>> = (0..nv)
                .map(|v| {
                    let data = (0..shape.phys_len())
                        .map(|i| ((i * (v + 2) + shape.rank * 13) as f64 * 0.01).sin())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();

            // CPU forward, GPU inverse, compare with original.
            let specs = cpu.physical_to_fourier(&phys);
            let back = gpu.fourier_to_physical(&specs);
            let mut err = 0.0f64;
            for (a, b) in back.iter().zip(&phys) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((x - y).abs());
                }
            }
            // GPU forward must match CPU forward too.
            let specs_gpu = gpu.physical_to_fourier(&phys);
            for (a, b) in specs_gpu.iter().zip(&specs) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((*x - *y).abs().to_f64());
                }
            }
            err
        });
        for e in errs {
            assert!(e < 1e-9, "mismatch {e}");
        }
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let n = 16;
        let out = Universe::run(1, move |comm| {
            let shape = LocalShape::new(n, 1, 0);
            // Device too small for a whole 16³ slab of complex f64.
            let device = Device::new(DeviceConfig::tiny(4096));
            let mut gpu = GpuSyncSlabFft::<f64>::new(shape, comm, device);
            let spec = SpectralField::zeros(shape);
            gpu.try_fourier_to_physical(std::slice::from_ref(&spec))
                .err()
        });
        match &out[0] {
            Some(Error::Device(psdns_device::DeviceError::OutOfMemory { .. })) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}
