//! Distributed 3-D FFT on the 1-D slab decomposition — host (CPU) path.
//!
//! Fourier → physical (paper Fig. 2 order): inverse c2c in y on the z-slab,
//! one global transpose (all-to-all), inverse c2c in z, inverse c2r in x.
//! Physical → Fourier runs the mirror image. One all-to-all moves all `nv`
//! variables of the call (the paper transposes 3 velocity components per
//! collective, §4.1).
//!
//! [`SlabFftCpu`] is the *reference* implementation the equivalence tests
//! pin the pipeline against. It is no longer the degraded-path executor:
//! since the `DeviceBackend` redesign, [`crate::GpuSlabFft`]'s
//! `cpu_fallback` mode re-runs its own certified schedule on a
//! `psdns_device::HostBackend` device instead of switching algorithms.

use psdns_comm::Communicator;
use psdns_domain::transpose::{apply_chunk_iter, SlabTranspose};
use psdns_fft::{Complex, Direction, ManyPlan, ManyRealPlan, Real};
use psdns_trace::SpanKind;

use crate::field::{LocalShape, PhysicalField, SpectralField, Transform3d};

/// Host implementation of the slab transform. Holds FFT plans and every
/// work buffer, so repeated calls allocate nothing (the buffers grow to the
/// largest `nv` seen, then stay). No buffer is cleared between calls: each
/// is fully overwritten before it is read.
pub struct SlabFftCpu<T: Real> {
    shape: LocalShape,
    comm: Communicator,
    plan_y: ManyPlan<T>,
    plan_z: ManyPlan<T>,
    /// Batched x-direction r2c/c2r over every line of the y-slab at once:
    /// `my·n` dense real lines of length `n` against `my·n` dense
    /// half-spectrum lines of length `nxh`.
    plan_x: ManyRealPlan<T>,
    scratch: Vec<Complex<T>>,
    /// One z-plane (`nxh·n`, cache-sized): the inverse y-transform runs here
    /// and the plane is packed straight out, so the input slab is never
    /// copied as a whole.
    plane: Vec<Complex<T>>,
    /// All-to-all buffers, `nv` variables wide.
    send: Vec<Complex<T>>,
    recv: Vec<Complex<T>>,
    /// One variable's y-slab.
    yslab: Vec<Complex<T>>,
    /// Within-rank worker threads for the batched 1-D FFTs — the paper's
    /// hybrid MPI+OpenMP layer (§3.1: "a hybrid approach to further
    /// parallelize within a slab").
    threads: usize,
    /// Fused non-finite staging scan (see
    /// [`Transform3d::set_scan_nonfinite`]): when armed, each packed send
    /// buffer is scanned right before its all-to-all, so corruption is
    /// counted at the rank that produced it rather than after it has fanned
    /// out across the decomposition.
    scan_nonfinite: bool,
    nonfinite_count: u64,
}

impl<T: Real> SlabFftCpu<T> {
    pub fn new(shape: LocalShape, comm: Communicator) -> Self {
        assert_eq!(comm.size(), shape.p, "communicator size != decomposition");
        assert_eq!(comm.rank(), shape.rank);
        let LocalShape { n, nxh, my, .. } = shape;
        // y lines on the z-slab: stride nxh, one batch per x, per z-plane.
        let plan_y = ManyPlan::new(n, nxh, 1, nxh);
        // z lines on the y-slab: stride nxh·my, one batch per (x, yl).
        let plan_z = ManyPlan::new(n, nxh * my, 1, nxh * my);
        // x lines: real side dense in the physical field (dist n), complex
        // side dense in the y-slab (dist nxh) — one batch per (yl, z).
        let plan_x = ManyRealPlan::new(n, my * n, 1, n, 1, nxh);
        let scratch_len = plan_y
            .scratch_len()
            .max(plan_z.scratch_len())
            .max(plan_x.scratch_len());
        Self {
            shape,
            comm,
            plan_y,
            plan_z,
            plan_x,
            scratch: vec![Complex::zero(); scratch_len],
            plane: vec![Complex::zero(); nxh * n],
            send: Vec::new(),
            recv: Vec::new(),
            yslab: vec![Complex::zero(); nxh * my * n],
            threads: 1,
            scan_nonfinite: false,
            nonfinite_count: 0,
        }
    }

    /// Enable hybrid within-rank threading: the batched y/z transforms run
    /// on `threads` scoped worker threads (1 = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.threads = threads;
        self
    }

    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Grow the all-to-all buffers to `nv` variables (first call at that
    /// width only) and return the transpose map.
    fn transpose_map(&mut self, nv: usize) -> SlabTranspose {
        let t = SlabTranspose::new(self.shape.slab(), self.shape.nxh, nv);
        if self.send.len() < t.buf_len() {
            self.send.resize(t.buf_len(), Complex::zero());
            self.recv.resize(t.buf_len(), Complex::zero());
        }
        t
    }

    /// The packed send buffer's way through the transpose: seeded corruption
    /// injection, the fused non-finite scan when armed, then one all-to-all
    /// for all `nv` variables into `recv`.
    fn exchange(&mut self, class: &str, len: usize) {
        let send = &mut self.send[..len];
        crate::integrity::inject_buf_flip(&self.comm, class, send);
        if self.scan_nonfinite {
            self.nonfinite_count += crate::integrity::count_nonfinite_buf(send);
        }
        self.comm.alltoall_into(send, &mut self.recv[..len]);
    }

    /// In-place y transform of one z-plane.
    fn y_transform(&mut self, plane: &mut [Complex<T>], dir: Direction) {
        if self.threads > 1 {
            self.plan_y.execute_parallel(plane, dir, self.threads);
        } else {
            self.plan_y
                .execute_with_scratch(plane, &mut self.scratch, dir);
        }
    }

    /// In-place z transform over the whole y-slab buffer.
    fn z_transform(&mut self, dir: Direction) {
        if self.threads > 1 {
            self.plan_z
                .execute_parallel(&mut self.yslab, dir, self.threads);
        } else {
            self.plan_z
                .execute_with_scratch(&mut self.yslab, &mut self.scratch, dir);
        }
    }
}

impl<T: Real> Transform3d<T> for SlabFftCpu<T> {
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
        let nv = specs.len();
        assert!(nv > 0);
        assert_eq!(out.len(), nv, "one output field per input");
        let s = self.shape;
        let t = self.transpose_map(nv);
        let tracer = self.comm.tracer().cloned();

        // 1. y-inverse a z-plane at a time, packed straight into the send
        //    buffer (one all-to-all for all nv variables).
        let span = tracer
            .as_ref()
            .map(|tr| tr.span(SpanKind::FftCompute, "cpu", "fft-y-inverse+pack-zslab"));
        let row = s.nxh;
        let mut plane = std::mem::take(&mut self.plane);
        for (v, f) in specs.iter().enumerate() {
            assert_eq!(f.shape, s, "field shape mismatch");
            for (zl, src) in f.data.chunks_exact(plane.len()).enumerate() {
                plane.copy_from_slice(src);
                self.y_transform(&mut plane, Direction::Inverse);
                for (y, line) in plane.chunks_exact(row).enumerate() {
                    let dst = t.zslab_row_dst(v, y, zl);
                    self.send[dst..dst + row].copy_from_slice(line);
                }
            }
        }
        self.plane = plane;
        drop(span);
        self.exchange("z2y", t.buf_len());

        // 2. Unpack to y-slabs, z-inverse, then x complex-to-real.
        let span = tracer
            .as_ref()
            .map(|tr| tr.span(SpanKind::FftCompute, "cpu", "fft-z-inverse+x-c2r"));
        for (v, phys) in out.iter_mut().enumerate() {
            assert_eq!(phys.shape, s, "field shape mismatch");
            for src in 0..s.p {
                apply_chunk_iter(
                    t.unpack_to_yslab_iter(src, v, 0..s.my),
                    &self.recv,
                    &mut self.yslab,
                );
            }
            self.z_transform(Direction::Inverse);
            // Batched x c2r: every (yl, z) line of the slab in one call,
            // written in place into the physical field.
            if self.threads > 1 {
                self.plan_x
                    .inverse_parallel(&self.yslab, &mut phys.data, self.threads);
            } else {
                self.plan_x
                    .inverse_with_scratch(&self.yslab, &mut phys.data, &mut self.scratch);
            }
        }
        drop(span);
    }

    fn physical_to_fourier_into(
        &mut self,
        phys: &[PhysicalField<T>],
        out: &mut [SpectralField<T>],
    ) {
        let nv = phys.len();
        assert!(nv > 0);
        assert_eq!(out.len(), nv, "one output field per input");
        let s = self.shape;
        let t = self.transpose_map(nv);
        let tracer = self.comm.tracer().cloned();

        // 1. x real-to-complex and z-forward per variable; pack as we go.
        let span = tracer
            .as_ref()
            .map(|tr| tr.span(SpanKind::FftCompute, "cpu", "fft-x-r2c+z-forward"));
        for (v, f) in phys.iter().enumerate() {
            assert_eq!(f.shape, s, "field shape mismatch");
            // Batched x r2c: the whole physical slab into the y-slab's
            // half-spectrum lines in one call.
            if self.threads > 1 {
                self.plan_x
                    .forward_parallel(&f.data, &mut self.yslab, self.threads);
            } else {
                self.plan_x
                    .forward_with_scratch(&f.data, &mut self.yslab, &mut self.scratch);
            }
            self.z_transform(Direction::Forward);
            for d in 0..s.p {
                apply_chunk_iter(
                    t.pack_from_yslab_iter(d, v, 0..s.my),
                    &self.yslab,
                    &mut self.send,
                );
            }
        }
        drop(span);

        // 2. Transpose back.
        self.exchange("y2z", t.buf_len());

        // 3. Unpack straight into the output z-slabs and y-forward there.
        let span = tracer
            .as_ref()
            .map(|tr| tr.span(SpanKind::FftCompute, "cpu", "unpack+fft-y-forward"));
        let plane = s.nxh * s.n;
        for (v, spec) in out.iter_mut().enumerate() {
            assert_eq!(spec.shape, s, "field shape mismatch");
            for src in 0..s.p {
                apply_chunk_iter(
                    t.unpack_to_zslab_iter(src, v, 0..s.nxh),
                    &self.recv,
                    &mut spec.data,
                );
            }
            for zplane in spec.data.chunks_exact_mut(plane) {
                self.y_transform(zplane, Direction::Forward);
            }
        }
        drop(span);
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

#[cfg(test)]
mod tests {
    use super::*;
    use psdns_comm::Universe;
    use psdns_fft::{fft_3d, Complex64, Dims3};

    /// Gathered distributed inverse transform must equal the serial one.
    #[test]
    fn matches_serial_fft3d() {
        let n = 8;
        let p = 4;
        // Global spectral field with conjugate symmetry (so physical space
        // is real): build from a real field by serial forward transform.
        let dims = Dims3::cube(n);
        let real_field: Vec<f64> = (0..dims.len())
            .map(|i| ((i as f64) * 0.17).sin() + ((i as f64) * 0.045).cos())
            .collect();
        let mut full_spec: Vec<Complex64> =
            real_field.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        fft_3d(&mut full_spec, dims, Direction::Forward);

        let physical = Universe::run(p, |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let mut fft = SlabFftCpu::<f64>::new(shape, comm);
            // Extract this rank's half-spectrum z-slab.
            let mut spec = SpectralField::zeros(shape);
            for zl in 0..shape.mz {
                let z = shape.z_global(zl);
                for y in 0..n {
                    for x in 0..shape.nxh {
                        *spec.at_mut(x, y, zl) = full_spec[dims.idx(x, y, z)];
                    }
                }
            }
            let phys = fft.fourier_to_physical(std::slice::from_ref(&spec));
            phys.into_iter().next().unwrap()
        });

        // Reassemble the physical field from y-slabs and compare.
        for (rank, slab) in physical.iter().enumerate() {
            let shape = LocalShape::new(n, p, rank);
            for z in 0..n {
                for yl in 0..shape.my {
                    let y = rank * shape.my + yl;
                    for x in 0..n {
                        let got = slab.at(x, yl, z);
                        let expect = real_field[dims.idx(x, y, z)];
                        assert!(
                            (got - expect).abs() < 1e-9,
                            "rank {rank} ({x},{y},{z}): {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_threaded_matches_serial() {
        // The paper's MPI+OpenMP hybrid: same answer with fewer ranks and
        // more threads per rank.
        let n = 12;
        let p = 2;
        let out = Universe::run(p, move |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let mut serial = SlabFftCpu::<f64>::new(shape, comm.clone());
            let mut hybrid = SlabFftCpu::<f64>::new(shape, comm).with_threads(4);
            let phys: Vec<PhysicalField<f64>> = (0..2)
                .map(|v| {
                    let data = (0..shape.phys_len())
                        .map(|i| ((i + v * 19) as f64 * 0.021).sin())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();
            let a = serial.physical_to_fourier(&phys);
            let b = hybrid.physical_to_fourier(&phys);
            let mut err = 0.0f64;
            for (x, y) in a.iter().zip(&b) {
                for (u, v) in x.data.iter().zip(&y.data) {
                    err = err.max((*u - *v).abs());
                }
            }
            err
        });
        for e in out {
            assert!(e < 1e-12, "hybrid differs from serial: {e}");
        }
    }

    #[test]
    fn roundtrip_identity_multi_variable() {
        let n = 12;
        let p = 3;
        let nv = 3;
        let max_err = Universe::run(p, move |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let mut fft = SlabFftCpu::<f64>::new(shape, comm);
            // Random-ish physical fields, distinct per rank and variable.
            let phys: Vec<PhysicalField<f64>> = (0..nv)
                .map(|v| {
                    let data: Vec<f64> = (0..shape.phys_len())
                        .map(|i| ((i + v * 37 + shape.rank * 101) as f64 * 0.013).sin())
                        .collect();
                    PhysicalField::from_data(shape, data)
                })
                .collect();
            let specs = fft.physical_to_fourier(&phys);
            let back = fft.fourier_to_physical(&specs);
            let mut err = 0.0f64;
            for (a, b) in back.iter().zip(&phys) {
                for (x, y) in a.data.iter().zip(&b.data) {
                    err = err.max((x - y).abs());
                }
            }
            err
        });
        for e in max_err {
            assert!(e < 1e-9, "roundtrip error {e}");
        }
    }

    #[test]
    fn single_mode_becomes_plane_wave() {
        // û at (kx,ky,kz) = (1,2,-1) (stored value N³/2 so the physical
        // amplitude is cos-like of unit size under our convention).
        let n = 8;
        let p = 2;
        let out = Universe::run(p, |comm| {
            let shape = LocalShape::new(n, p, comm.rank());
            let rank = comm.rank();
            let mut fft = SlabFftCpu::<f64>::new(shape, comm);
            let mut spec = SpectralField::zeros(shape);
            let (kx, ky, kz) = (1usize, 2usize, n - 1); // kz index for -1
            let owner = kz / shape.mz;
            if rank == owner {
                *spec.at_mut(kx, ky, kz - owner * shape.mz) =
                    Complex64::new((n * n * n) as f64 / 2.0, 0.0);
            }
            fft.fourier_to_physical(std::slice::from_ref(&spec))
                .remove(0)
        });
        for (rank, slab) in out.iter().enumerate() {
            let shape = LocalShape::new(n, p, rank);
            for z in 0..n {
                for yl in 0..shape.my {
                    let y = rank * shape.my + yl;
                    for x in 0..n {
                        let phase = 2.0 * std::f64::consts::PI / n as f64
                            * (x as f64 + 2.0 * y as f64 - z as f64);
                        // cos because conjugate symmetry supplies the -k mode
                        let expect = phase.cos();
                        let got = slab.at(x, yl, z);
                        assert!(
                            (got - expect).abs() < 1e-9,
                            "({x},{y},{z}): {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }
}
