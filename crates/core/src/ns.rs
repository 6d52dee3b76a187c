//! The Navier–Stokes pseudo-spectral integrator (paper §2).
//!
//! Time advance happens entirely in Fourier space: each Runge–Kutta substage
//! transforms the velocity (and vorticity) to physical space, forms the
//! nonlinear term there, transforms back, projects it perpendicular to **k**
//! (mass conservation) and dealiases. Viscosity is treated *exactly* via the
//! integrating factor `exp(−νk²Δt)`; RK2 and RK4 are provided (the paper
//! reports RK2 timings, with RK4 roughly doubling the cost per step).
//!
//! The nonlinear term uses the rotational form `u × ω` with
//! `ω̂ = i k × û` computed spectrally — 6 inverse + 3 forward 3-D transforms
//! per substage, the same transform count as the paper's scheme.
//!
//! Like the paper's code (§3.3–3.4: buffers allocated once, pencils streamed
//! through them), a step allocates nothing: every field it touches lives in
//! a solver-owned [`NsWorkspace`] sized in [`NavierStokes::new`], the
//! backend writes its transforms into it ([`Transform3d`]'s `_into` forms),
//! and the Runge–Kutta stages are fused in-place passes over it.

use psdns_fft::{Complex, Real};
use psdns_trace::SpanKind;

use crate::field::{LocalShape, PhysicalField, SpectralField, Transform3d};
use crate::forcing::Forcing;
use crate::integrity::{
    self, IntegrityAccumulator, IntegrityConfig, IntegrityError, IntegrityEvent,
};

/// Explicit Runge–Kutta scheme (paper §2: RK2 or RK4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TimeScheme {
    Rk2,
    Rk4,
}

/// Solver parameters.
#[derive(Clone, Debug)]
pub struct NsConfig {
    /// Kinematic viscosity ν.
    pub nu: f64,
    /// Time step Δt.
    pub dt: f64,
    pub scheme: TimeScheme,
    /// Optional low-wavenumber forcing for stationary turbulence.
    pub forcing: Option<Forcing>,
    /// Apply the spherical dealiasing truncation each substage.
    pub dealias: bool,
    /// Evaluate the nonlinear term on a half-cell-shifted grid (Rogallo's
    /// phase shifting, paper §2 \[17\]): removes the leading aliasing error
    /// of the products in combination with the `√2·N/3` truncation.
    pub phase_shift: bool,
}

impl Default for NsConfig {
    fn default() -> Self {
        Self {
            nu: 0.01,
            dt: 1e-2,
            scheme: TimeScheme::Rk2,
            forcing: None,
            dealias: true,
            phase_shift: false,
        }
    }
}

/// One local Fourier mode as [`ModeTables::for_each_mode`] visits it.
#[derive(Copy, Clone)]
struct Mode {
    /// Storage index ([`LocalShape::spec_idx`]).
    i: usize,
    /// FFT indices along x (half spectrum), y and *global* z.
    x: usize,
    y: usize,
    z: usize,
    /// Integer `|k|²`: the index into every by-magnitude table.
    q: usize,
}

/// Per-mode constants of the spectral passes, tabulated once per solver.
/// Wavenumbers are integers, so everything that depends on a mode only
/// through `|k|²` is a table of `3(N/2)² + 1` entries that stays in cache.
struct ModeTables<T> {
    shape: LocalShape,
    /// Signed wavenumber of an FFT index, as the projector multiplies by it.
    k: Vec<T>,
    /// The same as integers, for `|k|²`.
    k_int: Vec<usize>,
    /// `1/|k|²` by `|k|²` (entry 0 unused: the mean mode is not projected).
    inv_k2: Vec<T>,
    /// Dealiasing mask by `|k|²`.
    keep: Vec<bool>,
}

impl<T: Real> ModeTables<T> {
    fn new(shape: LocalShape) -> Self {
        let n = shape.n;
        let grid = shape.grid();
        let wavenumbers = psdns_domain::grid::wavenumbers(n);
        let q_max = 3 * (n / 2) * (n / 2);
        Self {
            shape,
            k: wavenumbers.iter().map(|&k| T::from_f64(k as f64)).collect(),
            k_int: wavenumbers
                .iter()
                .map(|&k| k.unsigned_abs() as usize)
                .collect(),
            inv_k2: (0..=q_max).map(|q| T::from_f64(1.0 / q as f64)).collect(),
            // The spherical truncation of `Grid::keep`, which sees a mode
            // only through |k|².
            keep: (0..=q_max)
                .map(|q| (q as f64).sqrt() <= grid.kmax)
                .collect(),
        }
    }

    /// Visit every local mode in storage order.
    fn for_each_mode(&self, mut f: impl FnMut(Mode)) {
        let s = self.shape;
        let mut i = 0;
        for zl in 0..s.mz {
            let z = s.z_global(zl);
            for y in 0..s.n {
                let q_yz = self.k_int[y] * self.k_int[y] + self.k_int[z] * self.k_int[z];
                for x in 0..s.nxh {
                    let q = q_yz + x * x;
                    f(Mode { i, x, y, z, q });
                    i += 1;
                }
            }
        }
    }

    /// Projection perpendicular to **k** and (optionally) the dealiasing
    /// truncation, in one pass.
    fn project_and_dealias(&self, f: &mut [SpectralField<T>; 3], dealias: bool) {
        let [f0, f1, f2] = f;
        self.for_each_mode(|m| {
            if dealias && !self.keep[m.q] {
                f0.data[m.i] = Complex::zero();
                f1.data[m.i] = Complex::zero();
                f2.data[m.i] = Complex::zero();
            } else if m.q > 0 {
                let (kx, ky, kz) = (self.k[m.x], self.k[m.y], self.k[m.z]);
                let (a, b, c) = (f0.data[m.i], f1.data[m.i], f2.data[m.i]);
                let kdotf = a.scale(kx) + b.scale(ky) + c.scale(kz);
                let scale = kdotf.scale(self.inv_k2[m.q]);
                f0.data[m.i] = a - scale.scale(kx);
                f1.data[m.i] = b - scale.scale(ky);
                f2.data[m.i] = c - scale.scale(kz);
            }
        });
    }
}

/// The viscous integrating factors `exp(−ν|k|²h)` for the full and the half
/// step, by `|k|²`; rebuilt only when `ν` or `Δt` change.
struct IntegratingFactor<T> {
    nu: f64,
    dt: f64,
    full: Vec<T>,
    half: Vec<T>,
}

impl<T: Real> IntegratingFactor<T> {
    fn new(len: usize) -> Self {
        Self {
            nu: f64::NAN,
            dt: f64::NAN,
            full: vec![T::ZERO; len],
            half: vec![T::ZERO; len],
        }
    }

    fn refresh(&mut self, nu: f64, dt: f64) {
        if (self.nu, self.dt) == (nu, dt) {
            return;
        }
        (self.nu, self.dt) = (nu, dt);
        for (q, (full, half)) in self.full.iter_mut().zip(&mut self.half).enumerate() {
            let k2 = q as f64;
            *full = T::from_f64((-nu * k2 * dt).exp());
            *half = T::from_f64((-nu * k2 * (dt / 2.0)).exp());
        }
    }
}

/// Every field a step touches besides the state itself, allocated once. A
/// buffer here is either fully overwritten before it is read or explicitly
/// copied into — never cleared by habit (DESIGN.md §11, "Steady-state
/// memory", lists who writes and who reads each).
struct NsWorkspace<T: Real> {
    /// The six-field transform input of the nonlinear term: the stage
    /// velocity û in `[0..3]`, its vorticity ω̂ in `[3..6]`.
    six: Vec<SpectralField<T>>,
    /// The nonlinear term of the current stage.
    k: [SpectralField<T>; 3],
    /// The running Runge–Kutta combination; becomes the state by a swap.
    next: [SpectralField<T>; 3],
    /// u and ω in physical space.
    phys: Vec<PhysicalField<T>>,
    /// u × ω.
    cross: [PhysicalField<T>; 3],
    /// Pre-step state kept by [`NavierStokes::step_verified`] (allocated by
    /// the first armed step).
    snapshot: Option<[SpectralField<T>; 3]>,
    tables: ModeTables<T>,
    factor: IntegratingFactor<T>,
}

impl<T: Real> NsWorkspace<T> {
    fn new(s: LocalShape) -> Self {
        let tables = ModeTables::new(s);
        Self {
            six: vec![SpectralField::zeros(s); 6],
            k: std::array::from_fn(|_| SpectralField::zeros(s)),
            next: std::array::from_fn(|_| SpectralField::zeros(s)),
            phys: vec![PhysicalField::zeros(s); 6],
            cross: std::array::from_fn(|_| PhysicalField::zeros(s)),
            snapshot: None,
            factor: IntegratingFactor::new(tables.keep.len()),
            tables,
        }
    }
}

fn copy_fields<T: Real>(dst: &mut [SpectralField<T>], src: &[SpectralField<T>]) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.data.copy_from_slice(&s.data);
    }
}

/// The distributed solver, generic over the transform backend (CPU slab,
/// synchronous GPU, asynchronous batched GPU).
pub struct NavierStokes<T: Real, B: Transform3d<T>> {
    pub backend: B,
    pub cfg: NsConfig,
    /// Velocity in Fourier space (z-slab layout), 3 components.
    pub u: [SpectralField<T>; 3],
    pub step_count: usize,
    pub time: f64,
    /// Integrity monitors driving [`Self::step_verified`] (default:
    /// disarmed — the plain `step` path pays nothing).
    integrity: IntegrityConfig,
    /// All-integer log of violations, retries and heals, appended by
    /// [`Self::step_verified`]. Byte-identical across same-seed reruns.
    pub integrity_events: Vec<IntegrityEvent>,
    /// Per-step invariant sums filled by the nonlinear term while armed.
    acc: IntegrityAccumulator,
    ws: NsWorkspace<T>,
}

impl<T: Real, B: Transform3d<T>> NavierStokes<T, B> {
    pub fn new(backend: B, cfg: NsConfig, u: [SpectralField<T>; 3]) -> Self {
        let shape = backend.shape();
        for f in &u {
            assert_eq!(f.shape, shape, "velocity fields must match backend shape");
        }
        let mut solver = Self {
            backend,
            cfg,
            u,
            step_count: 0,
            time: 0.0,
            integrity: IntegrityConfig::default(),
            integrity_events: Vec::new(),
            acc: IntegrityAccumulator::default(),
            ws: NsWorkspace::new(shape),
        };
        // Make the initial condition admissible: solenoidal and dealiased.
        solver
            .ws
            .tables
            .project_and_dealias(&mut solver.u, solver.cfg.dealias);
        if let Some(f) = solver.cfg.forcing.as_mut() {
            f.prime(&solver.u, solver.backend.comm());
        }
        solver
    }

    /// The full nonlinear operator `N(û) = P_k[ F{u × ω} ]`, dealiased.
    /// Public so diagnostics (energy-transfer spectra) can evaluate it.
    pub fn nonlinear(&mut self, u: &[SpectralField<T>; 3]) -> [SpectralField<T>; 3] {
        copy_fields(&mut self.ws.six[..3], u);
        self.nonlinear_staged();
        self.ws.k.clone()
    }

    /// `ws.k ← N(ws.six[0..3])`: curl → transform → cross product →
    /// transform → project, every stage writing workspace fields. The stage
    /// velocity in `ws.six[0..3]` is consumed (phase shifting rotates it in
    /// place).
    fn nonlinear_staged(&mut self) {
        let tracer = self.backend.tracer().cloned();
        let _span = tracer
            .as_ref()
            .map(|t| t.span(SpanKind::NonlinearTerm, "solver.nl", "nonlinear"));
        let ws = &mut self.ws;
        // Spectral vorticity ω̂ = i k × û (local, z-slab), next to û: one
        // batched transform of all 6 fields → one all-to-all, like the
        // paper's 3-variable transposes but for the rotational form.
        let (vel, vort) = ws.six.split_at_mut(3);
        crate::ops::curl_into(vel, vort);
        if self.cfg.phase_shift {
            for f in ws.six.iter_mut() {
                apply_phase_shift(f, true);
            }
        }
        // Parseval bookkeeping for [`Self::step_verified`]: the transforms
        // are exact, so the energy entering each direction must come out the
        // other side. Both directions share one accumulator pair.
        let parseval = self.integrity.parseval_tol.is_some();
        if parseval {
            self.acc.spec_energy += integrity::spectral_energy_local(&ws.six);
        }
        self.backend.fourier_to_physical_into(&ws.six, &mut ws.phys);
        if parseval {
            self.acc.phys_energy += integrity::physical_energy_local(&ws.phys);
        }
        let (up, wp) = ws.phys.split_at(3);

        // Cross product u × ω pointwise in physical space — on the device
        // for accelerator backends (see Transform3d::cross_product).
        self.backend.cross_product_into(up, wp, &mut ws.cross);
        if self.integrity.cross_tol.is_some() {
            let r = integrity::cross_orthogonality_local(up, wp, &ws.cross);
            self.acc.ortho_max = self.acc.ortho_max.max(r);
        }
        if parseval {
            self.acc.phys_energy += integrity::physical_energy_local(&ws.cross);
        }
        self.backend.physical_to_fourier_into(&ws.cross, &mut ws.k);
        if parseval {
            // Before extraction/projection — those drop energy legitimately.
            self.acc.spec_energy += integrity::spectral_energy_local(&ws.k);
        }
        if self.cfg.phase_shift {
            for f in ws.k.iter_mut() {
                apply_phase_shift(f, false);
            }
        }
        let proj = tracer
            .as_ref()
            .map(|t| t.span(SpanKind::Projection, "solver.proj", "project+dealias"));
        ws.tables.project_and_dealias(&mut ws.k, self.cfg.dealias);
        drop(proj);
    }

    /// CFL-limited time step: `dt = cfl·Δx / max|u_i|`, reduced globally.
    /// Costs one 3-variable transform (one all-to-all), like any physical-
    /// space operation in this code.
    pub fn suggest_dt(&mut self, cfl: f64) -> f64 {
        let s = self.backend.shape();
        let phys = &mut self.ws.phys[..3];
        self.backend.fourier_to_physical_into(&self.u, phys);
        let mut umax = 0.0f64;
        for f in phys.iter() {
            for &v in &f.data {
                umax = umax.max(v.to_f64().abs());
            }
        }
        let umax = self.backend.comm().allreduce(umax, f64::max);
        let dx = 2.0 * std::f64::consts::PI / s.n as f64;
        if umax > 0.0 {
            cfl * dx / umax
        } else {
            f64::INFINITY
        }
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        let _span = self.backend.tracer().map(|t| {
            t.span(
                SpanKind::Step,
                "solver",
                &format!("step[{}]", self.step_count),
            )
        });
        self.ws.factor.refresh(self.cfg.nu, self.cfg.dt);
        match self.cfg.scheme {
            TimeScheme::Rk2 => self.step_rk2(),
            TimeScheme::Rk4 => self.step_rk4(),
        }
        if let Some(f) = self.cfg.forcing.as_mut() {
            f.apply(&mut self.u, self.backend.comm());
        }
        self.step_count += 1;
        self.time += self.cfg.dt;
    }

    /// Arm (or disarm) the integrity monitors used by
    /// [`Self::step_verified`]. Also arms the backend's fused non-finite
    /// staging scan when the config asks for it.
    pub fn set_integrity(&mut self, cfg: IntegrityConfig) {
        self.backend.set_scan_nonfinite(cfg.scan_nonfinite);
        self.integrity = cfg;
    }

    /// The active integrity configuration.
    pub fn integrity(&self) -> &IntegrityConfig {
        &self.integrity
    }

    /// Advance one time step under the integrity monitors: detect a silent
    /// corruption of this step (NaN/Inf, Parseval imbalance, kernel
    /// orthogonality, divergence), localize it to the step, and recover by
    /// re-running the step from the in-memory pre-step state. A transient
    /// fault (an SEU does not repeat) re-executes cleanly and the healed
    /// trajectory is byte-identical to a fault-free run; a persistent fault
    /// exhausts [`IntegrityConfig::max_step_retries`] and surfaces as a
    /// typed [`IntegrityError::RetriesExhausted`] on *every* rank — the
    /// verdict comes from globally reduced sums, so the reduction is the
    /// agreement round and no rank can diverge from the others.
    ///
    /// With the monitors disarmed this is exactly [`Self::step`].
    pub fn step_verified(&mut self) -> Result<(), IntegrityError> {
        if !self.integrity.enabled() {
            self.step();
            return Ok(());
        }
        // The pre-step state goes into the workspace's snapshot fields,
        // which this call borrows for its duration.
        let snapshot = match self.ws.snapshot.take() {
            Some(mut fields) => {
                copy_fields(&mut fields, &self.u);
                fields
            }
            None => self.u.clone(),
        };
        let result = self.step_verified_from(&snapshot);
        self.ws.snapshot = Some(snapshot);
        result
    }

    /// The detect → retry loop of [`Self::step_verified`], given a copy of
    /// the current state. The step runs in persistent buffers, but every
    /// one of them is rewritten from `u` before it is read, so restoring `u`
    /// (and the scalars beside it) is a complete rollback.
    fn step_verified_from(
        &mut self,
        snapshot: &[SpectralField<T>; 3],
    ) -> Result<(), IntegrityError> {
        let (time, forcing) = (self.time, self.cfg.forcing.clone());
        let from_step = self.step_count;
        let mut attempt: u32 = 0;
        loop {
            self.acc = IntegrityAccumulator::default();
            // Discard staging-scan counts from unverified activity (e.g.
            // diagnostics between steps) so they cannot taint this step.
            let _ = self.backend.take_nonfinite();
            self.step();
            let Err(e) = self.check_step() else {
                if attempt > 0 {
                    self.integrity_events.push(IntegrityEvent::Healed {
                        step: from_step,
                        attempts: attempt,
                    });
                }
                return Ok(());
            };
            self.integrity_events.push(IntegrityEvent::Violation {
                step: from_step,
                attempt,
                check: e.check(),
            });
            // Back onto the pre-step state — also when giving up, so callers
            // escalating to checkpoint rollback start from something sane
            // rather than the corrupted post-step state.
            copy_fields(&mut self.u, snapshot);
            self.time = time;
            self.step_count = from_step;
            self.cfg.forcing.clone_from(&forcing);
            if attempt >= self.integrity.max_step_retries {
                return Err(IntegrityError::RetriesExhausted {
                    step: from_step,
                    attempts: attempt + 1,
                    last: e.check(),
                });
            }
            attempt += 1;
            self.integrity_events.push(IntegrityEvent::Retry {
                step: from_step,
                attempt,
            });
        }
    }

    /// Evaluate every armed monitor against the step that just ran. Two
    /// global reductions; all inputs to the verdict are globally agreed
    /// values, so every rank returns the same result.
    fn check_step(&mut self) -> Result<(), IntegrityError> {
        let cfg = self.integrity.clone();
        let mut nf_local = self.backend.take_nonfinite();
        if cfg.scan_nonfinite {
            nf_local += integrity::count_nonfinite_spec(&self.u);
        }
        let (div_num, div_den) = if cfg.divergence_tol.is_some() {
            integrity::divergence_sums_local(&self.u)
        } else {
            (0.0, 0.0)
        };
        let sums = self.backend.comm().allreduce_vec(
            &[
                self.acc.spec_energy,
                self.acc.phys_energy,
                div_num,
                div_den,
                nf_local as f64,
            ],
            |a, b| a + b,
        );
        let ortho = if cfg.cross_tol.is_some() {
            self.backend.comm().allreduce(self.acc.ortho_max, f64::max)
        } else {
            0.0
        };
        // Non-finite first: its count stays a finite integer even when the
        // state is NaN and every residual below is meaningless.
        if sums[4] > 0.0 {
            return Err(IntegrityError::NonFinite {
                count: sums[4] as u64,
            });
        }
        let fails = |resid: f64, tol: f64| !resid.is_finite() || resid > tol;
        if let Some(tol) = cfg.parseval_tol {
            let resid = (sums[0] - sums[1]).abs() / sums[0].abs().max(1e-30);
            if fails(resid, tol) {
                return Err(IntegrityError::Parseval {
                    residual_bits: resid.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        if let Some(tol) = cfg.cross_tol {
            if fails(ortho, tol) {
                return Err(IntegrityError::CrossOrthogonality {
                    residual_bits: ortho.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        if let Some(tol) = cfg.divergence_tol {
            let resid = if sums[3] > 0.0 {
                (sums[2] / sums[3]).sqrt()
            } else {
                0.0
            };
            if fails(resid, tol) {
                return Err(IntegrityError::Divergence {
                    residual_bits: resid.to_bits(),
                    tol_bits: tol.to_bits(),
                });
            }
        }
        Ok(())
    }

    /// One fused pass over every (mode, component): `f(e, eh, u, k, stage,
    /// next)` sees the integrating factors for the full and half step, the
    /// state and the current nonlinear term, and writes the next stage's
    /// velocity (straight into the transform input) and the running
    /// combination.
    fn rk_pass(
        &mut self,
        f: impl Fn(T, T, Complex<T>, Complex<T>, &mut Complex<T>, &mut Complex<T>),
    ) {
        let NsWorkspace {
            six,
            k,
            next,
            tables,
            factor,
            ..
        } = &mut self.ws;
        let u = &self.u;
        tables.for_each_mode(|m| {
            let (e, eh) = (factor.full[m.q], factor.half[m.q]);
            for c in 0..3 {
                f(
                    e,
                    eh,
                    u[c].data[m.i],
                    k[c].data[m.i],
                    &mut six[c].data[m.i],
                    &mut next[c].data[m.i],
                );
            }
        });
    }

    /// `ws.k ← N(û)` for the first stage of either scheme.
    fn nonlinear_of_state(&mut self) {
        copy_fields(&mut self.ws.six[..3], &self.u);
        self.nonlinear_staged();
    }

    /// Heun RK2 with exact viscous integrating factor:
    /// `v = E·(û + Δt·N(û))`, `û⁺ = E·û + Δt/2·(E·N(û) + N(v))`.
    fn step_rk2(&mut self) {
        let dt = T::from_f64(self.cfg.dt);
        let half = T::from_f64(self.cfg.dt / 2.0);
        self.nonlinear_of_state();
        // Predictor: full Euler step under the integrating factor; and the
        // first two terms of the corrector while û and N₁ are at hand.
        self.rk_pass(|e, _, u, n1, v, next| {
            *v = (u + n1.scale(dt)).scale(e);
            *next = u.scale(e) + n1.scale(e).scale(half);
        });
        self.nonlinear_staged();
        self.rk_pass(|_, _, _, n2, _, next| *next += n2.scale(half));
        std::mem::swap(&mut self.u, &mut self.ws.next);
    }

    /// Classical RK4 with integrating factor at half/full steps:
    /// `û⁺ = E·û + Δt/6·(E·k₁ + 2·E½·k₂ + 2·E½·k₃ + k₄)`, accumulated as
    /// each `kᵢ` becomes available.
    fn step_rk4(&mut self) {
        let dt = T::from_f64(self.cfg.dt);
        let half = T::from_f64(self.cfg.dt / 2.0);
        let third = T::from_f64(self.cfg.dt / 3.0);
        let sixth = T::from_f64(self.cfg.dt / 6.0);
        self.nonlinear_of_state();
        self.rk_pass(|e, eh, u, k1, s2, next| {
            *s2 = (u + k1.scale(half)).scale(eh);
            *next = u.scale(e) + k1.scale(e).scale(sixth);
        });
        self.nonlinear_staged();
        self.rk_pass(|_, eh, u, k2, s3, next| {
            *s3 = u.scale(eh) + k2.scale(half);
            *next += k2.scale(eh).scale(third);
        });
        self.nonlinear_staged();
        // k3 enters at the half step; bring both to the full step.
        self.rk_pass(|_, eh, u, k3, s4, next| {
            *s4 = (u.scale(eh) + k3.scale(dt)).scale(eh);
            *next += k3.scale(eh).scale(third);
        });
        self.nonlinear_staged();
        self.rk_pass(|_, _, _, k4, _, next| *next += k4.scale(sixth));
        std::mem::swap(&mut self.u, &mut self.ws.next);
    }
}

/// Multiply a spectral field by `exp(±i·(kx+ky+kz)·Δx/2)` — evaluate on a
/// grid shifted by half a cell in each direction (Rogallo 1981). `forward`
/// applies the shift, `!forward` removes it.
pub fn apply_phase_shift<T: Real>(f: &mut SpectralField<T>, forward: bool) {
    let s = f.shape;
    let grid = s.grid();
    let half_dx = std::f64::consts::PI / s.n as f64; // Δx/2 with Δx = 2π/N
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let theta = (kx + ky + kz) * half_dx * if forward { 1.0 } else { -1.0 };
                let i = s.spec_idx(x, y, zl);
                f.data[i] *= Complex::from_f64(theta.cos(), theta.sin());
            }
        }
    }
}

/// Project a spectral vector field perpendicular to **k** (incompressibility)
/// and optionally apply the dealiasing truncation. The k = 0 mode (mean
/// flow) is preserved by projection and zeroed by nonlinear-term callers via
/// its own k·N(0) = 0 structure.
pub fn project_and_dealias<T: Real>(f: &mut [SpectralField<T>; 3], dealias: bool) {
    ModeTables::new(f[0].shape).project_and_dealias(f, dealias);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist_fft::SlabFftCpu;
    use crate::field::LocalShape;
    use crate::init::taylor_green;
    use crate::stats::flow_stats;
    use psdns_comm::Universe;

    fn tg_solver(
        n: usize,
        p: usize,
        comm: psdns_comm::Communicator,
        nu: f64,
        dt: f64,
        scheme: TimeScheme,
    ) -> NavierStokes<f64, SlabFftCpu<f64>> {
        let shape = LocalShape::new(n, p, comm.rank());
        let backend = SlabFftCpu::new(shape, comm);
        let u = taylor_green(shape);
        NavierStokes::new(
            backend,
            NsConfig {
                nu,
                dt,
                scheme,
                forcing: None,
                dealias: true,
                phase_shift: false,
            },
            u,
        )
    }

    /// With ν = 0 (Euler) the rotational form conserves kinetic energy; the
    /// time discretization error is O(dt²) per unit time for RK2.
    #[test]
    fn euler_conserves_energy() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(16, 2, comm, 0.0, 2e-3, TimeScheme::Rk4);
            let e0 = flow_stats(&ns.u, 0.0, ns.backend.comm()).energy;
            for _ in 0..10 {
                ns.step();
            }
            let e1 = flow_stats(&ns.u, 0.0, ns.backend.comm()).energy;
            (e0, e1)
        });
        for (e0, e1) in out {
            assert!(e0 > 1e-6, "initial energy must be nonzero");
            assert!(
                ((e1 - e0) / e0).abs() < 1e-6,
                "energy drift {} vs {}",
                e1,
                e0
            );
        }
    }

    /// High-viscosity limit: the nonlinear term is negligible and each mode
    /// decays like exp(−νk²t); Taylor–Green has |k|² = 3.
    #[test]
    fn viscous_decay_matches_analytic() {
        let out = Universe::run(2, |comm| {
            let nu = 0.5;
            let dt = 1e-3;
            let steps = 100;
            let mut ns = tg_solver(16, 2, comm, nu, dt, TimeScheme::Rk2);
            // Kill the nonlinear term by scaling velocity tiny: linear decay
            // dominates and is exact under the integrating factor.
            for c in ns.u.iter_mut() {
                for v in c.data.iter_mut() {
                    *v = v.scale(1e-8);
                }
            }
            let e0 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
            for _ in 0..steps {
                ns.step();
            }
            let e1 = flow_stats(&ns.u, nu, ns.backend.comm()).energy;
            let t = dt * steps as f64;
            let expect = e0 * (-2.0 * nu * 3.0 * t).exp(); // k² = 3 for TG
            (e1, expect)
        });
        for (e1, expect) in out {
            assert!(
                ((e1 - expect) / expect).abs() < 1e-6,
                "decay {} vs analytic {}",
                e1,
                expect
            );
        }
    }

    /// The velocity field must remain solenoidal through time stepping.
    #[test]
    fn divergence_free_is_maintained() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(12, 2, comm, 0.02, 5e-3, TimeScheme::Rk2);
            for _ in 0..5 {
                ns.step();
            }
            flow_stats(&ns.u, 0.02, ns.backend.comm()).max_divergence
        });
        for d in out {
            assert!(d < 1e-8, "divergence {d}");
        }
    }

    /// Phase-shifted evaluation must agree with plain truncation on a
    /// well-resolved flow (they differ only in aliasing error) and must not
    /// break conservation.
    #[test]
    fn phase_shift_agrees_on_resolved_flow() {
        let out = Universe::run(2, |comm| {
            let shape = LocalShape::new(16, 2, comm.rank());
            let mk = |shift: bool, comm: &psdns_comm::Communicator| {
                NavierStokes::new(
                    SlabFftCpu::<f64>::new(shape, comm.clone()),
                    NsConfig {
                        nu: 0.05,
                        dt: 2e-3,
                        scheme: TimeScheme::Rk2,
                        forcing: None,
                        dealias: true,
                        phase_shift: shift,
                    },
                    taylor_green(shape),
                )
            };
            let mut plain = mk(false, &comm);
            let mut shifted = mk(true, &comm);
            for _ in 0..10 {
                plain.step();
                shifted.step();
            }
            let ep = flow_stats(&plain.u, 0.05, plain.backend.comm()).energy;
            let es = flow_stats(&shifted.u, 0.05, shifted.backend.comm()).energy;
            let div = flow_stats(&shifted.u, 0.05, shifted.backend.comm()).max_divergence;
            (ep, es, div)
        });
        for (ep, es, div) in out {
            assert!(
                ((ep - es) / ep).abs() < 1e-4,
                "phase shift changed physics: {ep} vs {es}"
            );
            assert!(div < 1e-10, "phase shift broke solenoidality: {div}");
        }
    }

    /// The shift operator must be an exact involution (apply → remove).
    #[test]
    fn phase_shift_roundtrip_is_identity() {
        let shape = LocalShape::new(12, 1, 0);
        let u = taylor_green::<f64>(shape);
        let mut f = u[0].clone();
        apply_phase_shift(&mut f, true);
        apply_phase_shift(&mut f, false);
        for (a, b) in f.data.iter().zip(&u[0].data) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// suggest_dt scales like Δx/|u|: doubling the velocity halves dt.
    #[test]
    fn cfl_dt_scales_with_velocity() {
        let out = Universe::run(2, |comm| {
            let mut ns = tg_solver(16, 2, comm, 0.01, 1e-3, TimeScheme::Rk2);
            let dt1 = ns.suggest_dt(0.5);
            for c in ns.u.iter_mut() {
                for v in c.data.iter_mut() {
                    *v = v.scale(2.0);
                }
            }
            let dt2 = ns.suggest_dt(0.5);
            (dt1, dt2)
        });
        for (dt1, dt2) in out {
            assert!(dt1.is_finite() && dt1 > 0.0);
            assert!((dt1 / dt2 - 2.0).abs() < 1e-6, "{dt1} vs {dt2}");
        }
    }

    /// RK4 at the same dt must be closer to a fine-dt reference than RK2.
    #[test]
    fn rk4_more_accurate_than_rk2() {
        let energies = Universe::run(1, |comm| {
            let t_final = 0.2;
            let run = |scheme, dt: f64, comm: &psdns_comm::Communicator| {
                let mut ns = tg_solver(12, 1, comm.clone(), 0.05, dt, scheme);
                let steps = (t_final / dt).round() as usize;
                for _ in 0..steps {
                    ns.step();
                }
                flow_stats(&ns.u, 0.05, ns.backend.comm()).energy
            };
            let reference = run(TimeScheme::Rk4, 1e-3, &comm);
            let rk2 = run(TimeScheme::Rk2, 2e-2, &comm);
            let rk4 = run(TimeScheme::Rk4, 2e-2, &comm);
            (reference, rk2, rk4)
        });
        let (reference, rk2, rk4) = energies[0];
        let err2 = (rk2 - reference).abs();
        let err4 = (rk4 - reference).abs();
        assert!(
            err4 < err2,
            "RK4 error {err4} not smaller than RK2 error {err2}"
        );
    }
}
