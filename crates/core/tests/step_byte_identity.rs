//! The allocation-free step is a pure data-movement change: the state after
//! a step must be bit-for-bit what the allocating implementation produced.
//!
//! (a) FNV-1a digests of `ns.u` after three forced steps, generated at the
//!     commit *before* the solver-owned workspace existed, for every backend
//!     the solver runs on;
//! (b) the `*_into` transforms and their allocating wrappers agree bit for
//!     bit on random fields, for every in-tree backend;
//! (c) a step taken from a workspace full of NaN — every solver, backend and
//!     recycled wire buffer — equals a step from a fresh one: no buffer is
//!     read before it is fully overwritten, so none needs a zero-fill.

use proptest::prelude::*;
use psdns_comm::{Communicator, Universe};
use psdns_core::{
    normalize_energy, random_solenoidal, A2aMode, Forcing, GpuSlabFft, GpuSyncSlabFft,
    IntegrityConfig, LocalShape, NavierStokes, NsConfig, PhysicalField, SlabFftCpu, SpectralField,
    TimeScheme, Transform3d,
};
use psdns_device::{Device, DeviceConfig};
use psdns_fft::{Complex, Real};

const N: usize = 24;
const SEED: u64 = 2019;

fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of a velocity triple.
fn digest<T: Real>(u: &[SpectralField<T>; 3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for c in u.iter().flat_map(|f| f.data.iter()) {
        h = fnv_word(fnv_word(h, c.re.to_bits_u64()), c.im.to_bits_u64());
    }
    h
}

fn solver<T: Real, B: Transform3d<T>>(
    backend: B,
    world: &Communicator,
    scheme: TimeScheme,
) -> NavierStokes<T, B> {
    let mut u = random_solenoidal::<T>(backend.shape(), 4.0, SEED);
    normalize_energy(&mut u, 0.5, world);
    let cfg = NsConfig {
        nu: 0.01,
        dt: 2e-3,
        scheme,
        forcing: Some(Forcing::new(2.5)),
        dealias: true,
        phase_shift: false,
    };
    NavierStokes::new(backend, cfg, u)
}

fn gpu(shape: LocalShape, comm: Communicator, mode: A2aMode) -> GpuSlabFft<f32> {
    GpuSlabFft::<f32>::builder(shape)
        .comm(comm)
        .devices(vec![Device::new(DeviceConfig::tiny(1 << 24))])
        .np(3)
        .nv(6)
        .a2a_mode(mode)
        .build()
        .expect("three pencils of a 24-cube fit in 16 MiB")
}

/// One digest per configuration: the ranks' digests folded in rank order.
fn run_digest<T: Real, B: Transform3d<T>>(
    p: usize,
    scheme: TimeScheme,
    build: impl Fn(LocalShape, Communicator) -> B + Sync,
) -> u64 {
    let per_rank = Universe::run(p, |comm| {
        let shape = LocalShape::new(N, p, comm.rank());
        let world = comm.clone();
        let mut ns = solver(build(shape, comm), &world, scheme);
        for _ in 0..3 {
            ns.step();
        }
        digest(&ns.u)
    });
    per_rank.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv_word)
}

/// `(backend, scheme, P, digest)` recorded at the parent commit.
const PARENT_DIGESTS: &[(&str, &str, usize, u64)] = &[
    ("slab_cpu_f64", "rk2", 1, 0x009687519d91e941),
    ("gpu_f32_perpencil", "rk2", 1, 0x552d74f163545fc7),
    ("gpu_f32_perslab", "rk2", 1, 0x552d74f163545fc7),
    ("slab_cpu_f64", "rk2", 2, 0x98653b358557cbc1),
    ("gpu_f32_perpencil", "rk2", 2, 0x64096a827761dc08),
    ("gpu_f32_perslab", "rk2", 2, 0x64096a827761dc08),
    ("slab_cpu_f64", "rk4", 1, 0x5a750d61b31cf139),
    ("gpu_f32_perpencil", "rk4", 1, 0xf83fccfb2aea001d),
    ("gpu_f32_perslab", "rk4", 1, 0xf83fccfb2aea001d),
    ("slab_cpu_f64", "rk4", 2, 0xf436bc25d170d717),
    ("gpu_f32_perpencil", "rk4", 2, 0xa58cd6ace5e43500),
    ("gpu_f32_perslab", "rk4", 2, 0xa58cd6ace5e43500),
];

#[test]
fn state_after_three_steps_matches_parent_commit_digests() {
    let mut got = Vec::new();
    for (sname, scheme) in [("rk2", TimeScheme::Rk2), ("rk4", TimeScheme::Rk4)] {
        for p in [1, 2] {
            got.push((
                "slab_cpu_f64",
                sname,
                p,
                run_digest::<f64, _>(p, scheme, SlabFftCpu::new),
            ));
            for (bname, mode) in [
                ("gpu_f32_perpencil", A2aMode::PerPencil),
                ("gpu_f32_perslab", A2aMode::PerSlab),
            ] {
                let d = run_digest::<f32, _>(p, scheme, |s, c| gpu(s, c, mode));
                got.push((bname, sname, p, d));
            }
        }
    }
    for (b, s, p, d) in &got {
        println!("    (\"{b}\", \"{s}\", {p}, {d:#018x}),");
    }
    assert_eq!(got.as_slice(), PARENT_DIGESTS);
}

/// Deterministic values in (−1, 1).
fn noise(len: usize, seed: u64) -> impl Iterator<Item = f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len).map(move |_| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    })
}

fn random_phys<T: Real>(s: LocalShape, seed: u64) -> PhysicalField<T> {
    PhysicalField::from_data(s, noise(s.phys_len(), seed).map(T::from_f64).collect())
}

fn random_spec<T: Real>(s: LocalShape, seed: u64) -> SpectralField<T> {
    let re = noise(s.spec_len(), seed);
    let im = noise(s.spec_len(), !seed);
    SpectralField::from_data(
        s,
        re.zip(im).map(|(r, i)| Complex::from_f64(r, i)).collect(),
    )
}

fn spec_bits<T: Real>(fields: &[SpectralField<T>]) -> Vec<u64> {
    fields
        .iter()
        .flat_map(|f| f.data.iter())
        .flat_map(|c| [c.re.to_bits_u64(), c.im.to_bits_u64()])
        .collect()
}

fn phys_bits<T: Real>(fields: &[PhysicalField<T>]) -> Vec<u64> {
    fields
        .iter()
        .flat_map(|f| f.data.iter())
        .map(|v| v.to_bits_u64())
        .collect()
}

/// Every `_into` form, writing into NaN-filled fields, against its
/// allocating wrapper.
fn into_matches_wrappers<T: Real, B: Transform3d<T>>(b: &mut B, nv: usize, seed: u64) -> bool {
    let s = b.shape();
    let salt = seed ^ (s.rank as u64) << 32;
    let nan = T::from_f64(f64::NAN);
    let specs: Vec<_> = (0..nv)
        .map(|v| random_spec::<T>(s, salt + v as u64))
        .collect();
    let phys: Vec<_> = (0..nv)
        .map(|v| random_phys::<T>(s, salt + 10 + v as u64))
        .collect();
    let up: Vec<_> = (0..3).map(|v| random_phys::<T>(s, salt + 20 + v)).collect();
    let wp: Vec<_> = (0..3).map(|v| random_phys::<T>(s, salt + 30 + v)).collect();

    let mut phys_out = vec![PhysicalField::from_data(s, vec![nan; s.phys_len()]); nv];
    b.fourier_to_physical_into(&specs, &mut phys_out);
    let f2p = phys_bits(&phys_out) == phys_bits(&b.fourier_to_physical(&specs));

    let dirty = SpectralField::from_data(s, vec![Complex::new(nan, nan); s.spec_len()]);
    let mut spec_out = vec![dirty; nv];
    b.physical_to_fourier_into(&phys, &mut spec_out);
    let p2f = spec_bits(&spec_out) == spec_bits(&b.physical_to_fourier(&phys));

    let mut cross_out = [
        phys_out[0].clone(),
        phys_out[0].clone(),
        phys_out[0].clone(),
    ];
    for f in cross_out.iter_mut() {
        f.data.fill(nan);
    }
    b.cross_product_into(&up, &wp, &mut cross_out);
    let cross = phys_bits(&cross_out) == phys_bits(&b.cross_product(&up, &wp));
    f2p && p2f && cross
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn into_forms_agree_with_allocating_wrappers_on_every_backend(
        seed in 0u64..1_000_000,
        gi in 0usize..2,
        p in 1usize..3,
        nv in 1usize..4,
    ) {
        let n = [8usize, 12][gi];
        let ok = Universe::run(p, move |comm| {
            let s = LocalShape::new(n, p, comm.rank());
            let device = || Device::new(DeviceConfig::tiny(1 << 24));
            let pipelined = |mode| {
                GpuSlabFft::<f32>::builder(s)
                    .comm(comm.clone())
                    .devices(vec![device()])
                    .np(2)
                    .nv(nv)
                    .a2a_mode(mode)
                    .build()
                    .expect("two pencils of a 12-cube fit in 16 MiB")
            };
            [
                into_matches_wrappers(&mut SlabFftCpu::<f64>::new(s, comm.clone()), nv, seed),
                into_matches_wrappers(
                    &mut GpuSyncSlabFft::<f64>::new(s, comm.clone(), device()),
                    nv,
                    seed,
                ),
                into_matches_wrappers(&mut pipelined(A2aMode::PerPencil), nv, seed),
                into_matches_wrappers(&mut pipelined(A2aMode::PerSlab), nv, seed),
            ]
        });
        for (rank, per_backend) in ok.iter().enumerate() {
            prop_assert_eq!(per_backend, &[true; 4], "rank {} (cpu, sync, perpencil, perslab)", rank);
        }
    }
}

/// Digest after `steps` steps, optionally from a workspace in which one
/// preceding step on an all-NaN state has left NaN in every persistent
/// buffer: the solver's fields, the backend's plane/send/recv/y-slab, the
/// recycled wire buffers and (armed) the snapshot, sidecars and clean copies.
fn digest_from<T: Real, B: Transform3d<T>>(
    p: usize,
    scheme: TimeScheme,
    armed: bool,
    poison: bool,
    build: impl Fn(LocalShape, Communicator) -> B + Sync,
) -> Vec<u64> {
    Universe::run(p, |mut comm| {
        comm.set_abft_checksums(armed);
        let shape = LocalShape::new(N, p, comm.rank());
        let world = comm.clone();
        let mut ns = solver(build(shape, comm), &world, scheme);
        if armed {
            ns.set_integrity(IntegrityConfig::armed());
        }
        if poison {
            let good = ns.u.clone();
            let nan = T::from_f64(f64::NAN);
            for f in ns.u.iter_mut() {
                f.data.fill(Complex::new(nan, nan));
            }
            // Armed, the monitors reject the step and leave the NaN state
            // in place; either way every buffer has now carried NaN.
            assert_eq!(ns.step_verified().is_err(), armed);
            ns.u = good;
            ns.time = 0.0;
            ns.step_count = 0;
            ns.integrity_events.clear();
        }
        for _ in 0..2 {
            ns.step_verified().expect("clean step verifies");
        }
        assert!(ns.integrity_events.is_empty());
        digest(&ns.u)
    })
}

#[test]
fn a_step_from_a_nan_poisoned_workspace_is_bit_identical() {
    for (scheme, p, armed) in [
        (TimeScheme::Rk2, 2, false),
        (TimeScheme::Rk4, 1, false),
        (TimeScheme::Rk2, 2, true),
    ] {
        let run = |poison| digest_from::<f64, _>(p, scheme, armed, poison, SlabFftCpu::new);
        assert_eq!(run(true), run(false), "cpu {scheme:?} P={p} armed={armed}");
    }
    let run = |poison| {
        digest_from::<f32, _>(2, TimeScheme::Rk2, false, poison, |s, c| {
            gpu(s, c, A2aMode::PerPencil)
        })
    };
    assert_eq!(run(true), run(false), "gpu perpencil");
}
