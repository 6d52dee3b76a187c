//! Spectral differential operators on z-slab fields — the building blocks
//! of the pseudo-spectral method: differentiation is multiplication by
//! `i·k` in Fourier space (paper §2).
//!
//! All operators are local to a rank (no communication): the z-slab layout
//! keeps complete `(kx, ky)` planes per local `kz`.

use psdns_fft::Real;

use crate::field::SpectralField;

/// `∇f`: returns the three components `i·k_j·f̂`.
pub fn gradient<T: Real>(f: &SpectralField<T>) -> [SpectralField<T>; 3] {
    let s = f.shape;
    let grid = s.grid();
    let mut out = [
        SpectralField::zeros(s),
        SpectralField::zeros(s),
        SpectralField::zeros(s),
    ];
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let i = s.spec_idx(x, y, zl);
                let v = f.data[i];
                out[0].data[i] = v.scale(T::from_f64(kx)).mul_i();
                out[1].data[i] = v.scale(T::from_f64(ky)).mul_i();
                out[2].data[i] = v.scale(T::from_f64(kz)).mul_i();
            }
        }
    }
    out
}

/// `∇·u`: `i·k·û`.
pub fn divergence<T: Real>(u: &[SpectralField<T>; 3]) -> SpectralField<T> {
    let s = u[0].shape;
    let grid = s.grid();
    let mut out = SpectralField::zeros(s);
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let i = s.spec_idx(x, y, zl);
                out.data[i] = (u[0].data[i].scale(T::from_f64(kx))
                    + u[1].data[i].scale(T::from_f64(ky))
                    + u[2].data[i].scale(T::from_f64(kz)))
                .mul_i();
            }
        }
    }
    out
}

/// `∇×u`: the spectral curl `i·k×û` — vorticity when applied to velocity
/// (the quantity the solver pairs with `u` in the rotational-form nonlinear
/// term).
pub fn curl<T: Real>(u: &[SpectralField<T>; 3]) -> [SpectralField<T>; 3] {
    let s = u[0].shape;
    let mut w = [
        SpectralField::zeros(s),
        SpectralField::zeros(s),
        SpectralField::zeros(s),
    ];
    curl_into(u, &mut w);
    w
}

/// [`curl`] of the three fields `u` into the three fields `w` (every element
/// overwritten). Slices, so the solver can point both at halves of its
/// six-field transform input.
pub fn curl_into<T: Real>(u: &[SpectralField<T>], w: &mut [SpectralField<T>]) {
    let ([u0, u1, u2], [w0, w1, w2]) = (u, w) else {
        panic!("curl takes and fills three components");
    };
    let s = u0.shape;
    let grid = s.grid();
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let [kx, ky, kz] = grid.k_vec(x, y, z);
                let i = s.spec_idx(x, y, zl);
                let (ux, uy, uz) = (u0.data[i], u1.data[i], u2.data[i]);
                w0.data[i] = (uz.scale(T::from_f64(ky)) - uy.scale(T::from_f64(kz))).mul_i();
                w1.data[i] = (ux.scale(T::from_f64(kz)) - uz.scale(T::from_f64(kx))).mul_i();
                w2.data[i] = (uy.scale(T::from_f64(kx)) - ux.scale(T::from_f64(ky))).mul_i();
            }
        }
    }
}

/// `∇²f`: `−k²·f̂`.
pub fn laplacian<T: Real>(f: &SpectralField<T>) -> SpectralField<T> {
    let s = f.shape;
    let grid = s.grid();
    let mut out = SpectralField::zeros(s);
    for zl in 0..s.mz {
        let z = s.z_global(zl);
        for y in 0..s.n {
            for x in 0..s.nxh {
                let i = s.spec_idx(x, y, zl);
                out.data[i] = f.data[i].scale(T::from_f64(-grid.k_sqr(x, y, z)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::LocalShape;
    use crate::init::taylor_green;
    use psdns_fft::Complex64;

    fn single_mode(shape: LocalShape, kx: usize, iy: usize, izg: usize) -> SpectralField<f64> {
        let mut f = SpectralField::zeros(shape);
        let owner = izg / shape.mz;
        if owner == shape.rank {
            *f.at_mut(kx, iy, izg - owner * shape.mz) = Complex64::new(1.0, 0.0);
        }
        f
    }

    #[test]
    fn gradient_of_plane_wave() {
        // f̂ at k = (2, 3, -1): ∇f components are i·k_j at that mode.
        let n = 8;
        let shape = LocalShape::new(n, 1, 0);
        let f = single_mode(shape, 2, 3, n - 1);
        let g = gradient(&f);
        let i = shape.spec_idx(2, 3, n - 1);
        assert_eq!(g[0].data[i], Complex64::new(0.0, 2.0));
        assert_eq!(g[1].data[i], Complex64::new(0.0, 3.0));
        assert_eq!(g[2].data[i], Complex64::new(0.0, -1.0));
        // all other modes zero
        let total: f64 = g.iter().map(|c| c.mode_energy_local()).sum();
        let at_mode: f64 = 2.0 * (4.0 + 9.0 + 1.0); // conjugate weight 2 (kx>0)
        assert!((total - at_mode).abs() < 1e-12);
    }

    #[test]
    fn divergence_of_solenoidal_is_zero() {
        let shape = LocalShape::new(16, 1, 0);
        let u = taylor_green::<f64>(shape);
        let d = divergence(&u);
        assert!(d.mode_energy_local() < 1e-18);
    }

    #[test]
    fn curl_of_gradient_is_zero() {
        let shape = LocalShape::new(8, 1, 0);
        let f = single_mode(shape, 1, 2, 3);
        let g = gradient(&f);
        let c = curl(&g);
        let total: f64 = c.iter().map(|x| x.mode_energy_local()).sum();
        assert!(total < 1e-24, "∇×∇f must vanish: {total}");
    }

    #[test]
    fn divergence_of_curl_is_zero() {
        let shape = LocalShape::new(8, 1, 0);
        // Arbitrary (non-solenoidal) vector field, one mode per component.
        let u = [
            single_mode(shape, 1, 1, 0),
            single_mode(shape, 2, 0, 1),
            single_mode(shape, 0, 3, 2),
        ];
        let w = curl(&u);
        let d = divergence(&w);
        assert!(d.mode_energy_local() < 1e-24);
    }

    #[test]
    fn laplacian_matches_k_squared() {
        let n = 8;
        let shape = LocalShape::new(n, 1, 0);
        let f = single_mode(shape, 2, 1, 1);
        let l = laplacian(&f);
        let i = shape.spec_idx(2, 1, 1);
        assert_eq!(l.data[i], Complex64::new(-6.0, 0.0)); // k² = 4+1+1
    }

    #[test]
    fn curl_matches_solver_vorticity() {
        // Taylor–Green: ω = ∇×u must have enstrophy 3·E = 0.375·2 = …
        let shape = LocalShape::new(16, 1, 0);
        let u = taylor_green::<f64>(shape);
        let w = curl(&u);
        let n6 = ((shape.n as f64).powi(3)).powi(2);
        let enstrophy: f64 = w.iter().map(|c| 0.5 * c.mode_energy_local() / n6).sum();
        assert!((enstrophy - 0.375).abs() < 1e-12, "enstrophy {enstrophy}");
    }
}
