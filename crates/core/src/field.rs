//! Field containers and the transform-backend abstraction.

use psdns_domain::{Grid, Slab1d};
use psdns_fft::{Complex, Real};

/// Per-rank shape information for the slab decomposition.
///
/// Fourier space: z-slabs `(nxh, n, mz)` complex (x fastest).
/// Physical space: y-slabs `(n, my, n)` real (x fastest).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LocalShape {
    pub n: usize,
    pub p: usize,
    pub rank: usize,
    /// Half-spectrum extent in x: `n/2 + 1`.
    pub nxh: usize,
    pub my: usize,
    pub mz: usize,
}

impl LocalShape {
    pub fn new(n: usize, p: usize, rank: usize) -> Self {
        let slab = Slab1d::new(n, p);
        Self {
            n,
            p,
            rank,
            nxh: n / 2 + 1,
            my: slab.my(),
            mz: slab.mz(),
        }
    }

    pub fn slab(&self) -> Slab1d {
        Slab1d::new(self.n, self.p)
    }

    pub fn grid(&self) -> Grid {
        Grid::new(self.n)
    }

    /// Elements of one spectral (z-slab) field.
    pub fn spec_len(&self) -> usize {
        self.nxh * self.n * self.mz
    }

    /// Elements of one physical (y-slab) field.
    pub fn phys_len(&self) -> usize {
        self.n * self.my * self.n
    }

    /// Index into a spectral field: x in half spectrum, y global, zl local.
    #[inline]
    pub fn spec_idx(&self, x: usize, y: usize, zl: usize) -> usize {
        debug_assert!(x < self.nxh && y < self.n && zl < self.mz);
        x + self.nxh * (y + self.n * zl)
    }

    /// Index into a physical field: x global, yl local, z global.
    #[inline]
    pub fn phys_idx(&self, x: usize, yl: usize, z: usize) -> usize {
        debug_assert!(x < self.n && yl < self.my && z < self.n);
        x + self.n * (yl + self.my * z)
    }

    /// Global z of local plane `zl`.
    pub fn z_global(&self, zl: usize) -> usize {
        self.rank * self.mz + zl
    }

    /// Global y of local plane `yl`.
    pub fn y_global(&self, yl: usize) -> usize {
        self.rank * self.my + yl
    }
}

/// One spectral variable on this rank (z-slab layout).
#[derive(Clone, Debug, PartialEq)]
pub struct SpectralField<T> {
    pub shape: LocalShape,
    pub data: Vec<Complex<T>>,
}

impl<T: Real> SpectralField<T> {
    pub fn zeros(shape: LocalShape) -> Self {
        Self {
            shape,
            data: vec![Complex::zero(); shape.spec_len()],
        }
    }

    pub fn from_data(shape: LocalShape, data: Vec<Complex<T>>) -> Self {
        assert_eq!(data.len(), shape.spec_len());
        Self { shape, data }
    }

    #[inline]
    pub fn at(&self, x: usize, y: usize, zl: usize) -> Complex<T> {
        self.data[self.shape.spec_idx(x, y, zl)]
    }

    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, zl: usize) -> &mut Complex<T> {
        let i = self.shape.spec_idx(x, y, zl);
        &mut self.data[i]
    }

    /// Sum of |û|² with conjugate-symmetry double counting of kx > 0 modes
    /// (local to this rank; reduce across ranks for the global value).
    pub fn mode_energy_local(&self) -> f64 {
        let s = self.shape;
        let mut acc = 0.0f64;
        for zl in 0..s.mz {
            for y in 0..s.n {
                for x in 0..s.nxh {
                    let w = if x == 0 || (s.n.is_multiple_of(2) && x == s.nxh - 1) {
                        1.0
                    } else {
                        2.0
                    };
                    acc += w * self.at(x, y, zl).norm_sqr().to_f64();
                }
            }
        }
        acc
    }
}

/// One physical-space variable on this rank (y-slab layout).
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalField<T> {
    pub shape: LocalShape,
    pub data: Vec<T>,
}

impl<T: Real> PhysicalField<T> {
    pub fn zeros(shape: LocalShape) -> Self {
        Self {
            shape,
            data: vec![T::ZERO; shape.phys_len()],
        }
    }

    pub fn from_data(shape: LocalShape, data: Vec<T>) -> Self {
        assert_eq!(data.len(), shape.phys_len());
        Self { shape, data }
    }

    #[inline]
    pub fn at(&self, x: usize, yl: usize, z: usize) -> T {
        self.data[self.shape.phys_idx(x, yl, z)]
    }

    #[inline]
    pub fn at_mut(&mut self, x: usize, yl: usize, z: usize) -> &mut T {
        let i = self.shape.phys_idx(x, yl, z);
        &mut self.data[i]
    }
}

/// A distributed 3-D transform backend. Implementations: [`crate::SlabFftCpu`]
/// (host), [`crate::GpuSyncSlabFft`] (Fig. 2), [`crate::GpuSlabFft`]
/// (Fig. 4 async).
///
/// Conventions: `fourier_to_physical` applies inverse transforms carrying
/// the full `1/N³`; `physical_to_fourier` is unnormalized. The pair is an
/// exact round trip, and stored spectral coefficients are `N³ ×` the
/// mathematical Fourier-series coefficients (a pure convention that cancels
/// throughout the solver).
///
/// # Implementing the three operations
///
/// Each of the two transforms and the cross product exists in two forms: an
/// `_into` form that writes caller-owned fields (what the solver's
/// steady-state step calls — it allocates nothing) and a form that returns
/// fresh fields. Both are *provided*, each in terms of the other, so a
/// backend implements **one** of the pair — the `_into` side, for every
/// in-tree backend — and gets the other for free. Implementing neither
/// recurses without end.
pub trait Transform3d<T: Real> {
    fn shape(&self) -> LocalShape;

    /// The communicator spanning the decomposition (used by solver-level
    /// reductions: energy, spectra, CFL).
    fn comm(&self) -> &psdns_comm::Communicator;

    /// The tracer recording this backend's activity, if one is attached.
    /// The default sources it from the communicator (see
    /// [`psdns_comm::Communicator::set_tracer`]), so every backend that
    /// traces its transposes also exposes solver-phase spans for free.
    fn tracer(&self) -> Option<&psdns_trace::Tracer> {
        self.comm().tracer()
    }

    /// Statically certify the backend's planned transform schedule before
    /// running it: asynchronous backends replay their stream/event DAG
    /// through the happens-before analyzer and fail with
    /// [`crate::Error::Hazard`] on an ordering defect (see
    /// [`crate::GpuSlabFft::analyze_schedule`]). Synchronous backends have
    /// no schedule to check; the default certifies trivially.
    fn verify_schedule(&self) -> Result<(), crate::error::Error> {
        Ok(())
    }

    /// Arm or disarm the backend's fused non-finite scan of its transpose
    /// staging buffers (see [`crate::IntegrityConfig::scan_nonfinite`]).
    /// Backends without a staging scan ignore this; the solver-level
    /// post-step state scan still runs.
    fn set_scan_nonfinite(&mut self, _on: bool) {}

    /// Drain the count of non-finite values the fused staging scan has seen
    /// since the last drain. Backends without a scan report zero.
    fn take_nonfinite(&mut self) -> u64 {
        0
    }

    /// Transform `nv` spectral fields to physical space together (the paper
    /// moves 3 variables per all-to-all; one call = one logical transpose).
    fn fourier_to_physical(&mut self, specs: &[SpectralField<T>]) -> Vec<PhysicalField<T>> {
        let s = self.shape();
        let mut out: Vec<_> = specs.iter().map(|_| PhysicalField::zeros(s)).collect();
        self.fourier_to_physical_into(specs, &mut out);
        out
    }

    /// [`Self::fourier_to_physical`] into `out` (one field per input, every
    /// element overwritten).
    fn fourier_to_physical_into(
        &mut self,
        specs: &[SpectralField<T>],
        out: &mut [PhysicalField<T>],
    ) {
        assert_eq!(out.len(), specs.len(), "one output field per input");
        for (o, f) in out.iter_mut().zip(self.fourier_to_physical(specs)) {
            *o = f;
        }
    }

    /// Transform `nv` physical fields to Fourier space together.
    fn physical_to_fourier(&mut self, phys: &[PhysicalField<T>]) -> Vec<SpectralField<T>> {
        let s = self.shape();
        let mut out: Vec<_> = phys.iter().map(|_| SpectralField::zeros(s)).collect();
        self.physical_to_fourier_into(phys, &mut out);
        out
    }

    /// [`Self::physical_to_fourier`] into `out` (one field per input, every
    /// element overwritten).
    fn physical_to_fourier_into(
        &mut self,
        phys: &[PhysicalField<T>],
        out: &mut [SpectralField<T>],
    ) {
        assert_eq!(out.len(), phys.len(), "one output field per input");
        for (o, f) in out.iter_mut().zip(self.physical_to_fourier(phys)) {
            *o = f;
        }
    }

    /// Pointwise cross product `u × ω` in physical space — the nonlinear
    /// products of the pseudo-spectral method. Host backends form it on the
    /// CPU; accelerator backends form the products on the device, as the
    /// paper's code does ("other computations such as forming non-linear
    /// products in the DNS code", Fig. 4 caption).
    fn cross_product(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
    ) -> [PhysicalField<T>; 3] {
        let s = self.shape();
        let mut nl = [
            PhysicalField::zeros(s),
            PhysicalField::zeros(s),
            PhysicalField::zeros(s),
        ];
        self.cross_product_into(up, wp, &mut nl);
        nl
    }

    /// [`Self::cross_product`] into `out` (every element overwritten).
    fn cross_product_into(
        &mut self,
        up: &[PhysicalField<T>],
        wp: &[PhysicalField<T>],
        out: &mut [PhysicalField<T>; 3],
    ) {
        *out = self.cross_product(up, wp);
    }
}

/// The cross product `u × ω` on the host, with the seeded kernel-SEU
/// injection site `kernel:cross` — the `cross_product_into` of every backend
/// that has no device to form it on.
pub(crate) fn host_cross_product_into<T: Real>(
    comm: &psdns_comm::Communicator,
    up: &[PhysicalField<T>],
    wp: &[PhysicalField<T>],
    out: &mut [PhysicalField<T>; 3],
) {
    cross_product_kernel(up, wp, out);
    crate::integrity::inject_kernel_corrupt(comm, "cross", out);
}

/// `out = u × ω`, pointwise; no injection site.
pub(crate) fn cross_product_kernel<T: Real>(
    up: &[PhysicalField<T>],
    wp: &[PhysicalField<T>],
    out: &mut [PhysicalField<T>; 3],
) {
    assert_eq!(up.len(), 3);
    assert_eq!(wp.len(), 3);
    let [o0, o1, o2] = out;
    for i in 0..o0.data.len() {
        let (u0, u1, u2) = (up[0].data[i], up[1].data[i], up[2].data[i]);
        let (w0, w1, w2) = (wp[0].data[i], wp[1].data[i], wp[2].data[i]);
        o0.data[i] = u1 * w2 - u2 * w1;
        o1.data[i] = u2 * w0 - u0 * w2;
        o2.data[i] = u0 * w1 - u1 * w0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_arithmetic() {
        let s = LocalShape::new(16, 4, 2);
        assert_eq!(s.nxh, 9);
        assert_eq!((s.my, s.mz), (4, 4));
        assert_eq!(s.spec_len(), 9 * 16 * 4);
        assert_eq!(s.phys_len(), 16 * 4 * 16);
        assert_eq!(s.z_global(1), 9);
        assert_eq!(s.y_global(3), 11);
        assert_eq!(s.spec_idx(1, 2, 3), 1 + 9 * (2 + 16 * 3));
        assert_eq!(s.phys_idx(1, 2, 3), 1 + 16 * (2 + 4 * 3));
    }

    #[test]
    fn mode_energy_double_counts_interior_kx() {
        let s = LocalShape::new(8, 1, 0);
        let mut f = SpectralField::<f64>::zeros(s);
        *f.at_mut(0, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // weight 1
        *f.at_mut(2, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // weight 2
        *f.at_mut(4, 0, 0) = psdns_fft::Complex64::new(1.0, 0.0); // Nyquist, weight 1
        assert_eq!(f.mode_energy_local(), 4.0);
    }
}
