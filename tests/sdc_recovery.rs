//! Integration: end-to-end silent-data-corruption detection and recovery.
//!
//! Seeded single-bit / single-value corruption is injected at every
//! instrumented site class of a 2-rank solve and must be (a) *detected* by
//! the layer that owns the site — ABFT sidecars for in-transit messages,
//! the physics invariant monitors for staging buffers and kernels — and
//! (b) *healed* back onto the fault-free trajectory, byte for byte:
//!
//! - `flip:` (checksummed collective payloads) → bounded retransmission;
//! - `buf:`  (transpose staging buffers, below the checksum) → Parseval /
//!   NaN-scan violation → in-place step re-run;
//! - `kernel:` (cross-product compute SEU) → orthogonality violation →
//!   in-place step re-run;
//! - retries exhausted → buddy-checkpoint rollback inside
//!   `run_self_healing`;
//! - persistent (double) corruption → typed error on every rank, no hang.
//!
//! Same-seed replays must reproduce the spectra *and* the integrity event
//! log byte-identically.

use psdns::chaos::{ChaosConfig, ChaosEngine, FaultKind, FaultPlan};
use psdns::comm::Universe;
use psdns::core::{
    energy_spectrum, run_self_healing, taylor_green, Forcing, IntegrityCheck, IntegrityConfig,
    IntegrityError, IntegrityEvent, LocalShape, NavierStokes, NsConfig, SelfHealingConfig,
    SlabFftCpu, TimeScheme,
};

const N: usize = 8;
const RANKS: usize = 2;
const STEPS: usize = 3;

fn cfg() -> NsConfig {
    NsConfig {
        nu: 0.02,
        dt: 2e-3,
        scheme: TimeScheme::Rk2,
        forcing: None,
        dealias: true,
        phase_shift: false,
    }
}

/// A 2-rank verified solve: ABFT checksums armed, integrity monitors armed,
/// every step advanced through `step_verified`. Returns the final spectrum
/// and the integrity event log per rank.
fn verified_solve(
    engine: Option<ChaosEngine>,
    init_seed: Option<u64>,
) -> Vec<(Vec<f64>, Vec<IntegrityEvent>)> {
    let f = move |mut comm: psdns::comm::Communicator| {
        comm.set_abft_checksums(true);
        let shape = LocalShape::new(N, RANKS, comm.rank());
        let u = match init_seed {
            Some(seed) => psdns::core::random_solenoidal::<f64>(shape, 3.0, seed),
            None => taylor_green::<f64>(shape),
        };
        let mut ns = NavierStokes::new(SlabFftCpu::<f64>::new(shape, comm), cfg(), u);
        ns.set_integrity(IntegrityConfig::armed());
        for _ in 0..STEPS {
            ns.step_verified().expect("one-shot corruption must heal");
        }
        let spec = energy_spectrum(&ns.u, ns.backend.comm());
        (spec, ns.integrity_events.clone())
    };
    match engine {
        Some(e) => Universe::run_chaos(RANKS, e, f).expect("corruption heals, job survives"),
        None => Universe::run(RANKS, f),
    }
}

fn flip_engine(seed: u64, site_class: &str, plan: FaultPlan) -> ChaosEngine {
    let mut c = ChaosConfig::new(seed);
    c.bit_flip = plan;
    c.bit_flip_site = Some(site_class.to_string());
    ChaosEngine::new(c)
}

// ------------------------------------------------- message-site flips ----

/// A flipped bit in a checksummed collective payload is caught by the FNV
/// sidecar and healed by retransmission — transparently: no integrity
/// violation is ever raised and the spectra are byte-identical.
#[test]
fn message_flip_heals_by_retransmission_byte_identical() {
    let clean = verified_solve(None, None);
    let engine = flip_engine(42, "flip:", FaultPlan::at(0));
    let faulty = verified_solve(Some(engine.clone()), None);
    assert!(
        engine.log().iter().any(|r| r.kind == FaultKind::BitFlip),
        "transit flips must fire"
    );
    for ((cs, ce), (fs, fe)) in clean.iter().zip(&faulty) {
        assert_eq!(cs, fs, "healed spectra must be byte-identical");
        assert!(ce.is_empty(), "clean run raises no violations");
        assert!(
            fe.is_empty(),
            "ABFT masks transit flips below the monitors: {fe:?}"
        );
    }
}

// ------------------------------------------------- staging-buffer flips --

/// A flipped exponent bit in a transpose staging buffer sits *below* the
/// collective checksum — only the physics sees it. The Parseval / NaN-scan
/// monitors must flag the step and the in-place re-run must land back on
/// the fault-free trajectory, byte for byte.
#[test]
fn staging_buffer_flip_heals_by_step_retry() {
    let clean = verified_solve(None, None);
    let engine = flip_engine(7, "buf:", FaultPlan::at(0));
    let faulty = verified_solve(Some(engine.clone()), None);
    assert!(
        engine
            .log()
            .iter()
            .any(|r| r.kind == FaultKind::BitFlip && r.site.starts_with("buf:")),
        "staging-buffer flips must fire"
    );
    for ((cs, _), (fs, fe)) in clean.iter().zip(&faulty) {
        assert_eq!(cs, fs, "healed spectra must be byte-identical");
        assert!(
            fe.iter()
                .any(|e| matches!(e, IntegrityEvent::Violation { .. })),
            "monitors must flag the corrupted step: {fe:?}"
        );
        assert!(
            fe.iter()
                .any(|e| matches!(e, IntegrityEvent::Healed { .. })),
            "the re-run must heal: {fe:?}"
        );
    }
}

// ------------------------------------------------- kernel corruption -----

/// A single wrong cross-product output value (compute SEU) preserves the
/// Parseval balance of the nonlinear term — only the pointwise
/// orthogonality invariant `(u×ω)·u = 0` (or the NaN scan, when the blast
/// lands on a value in `[1,2)`) can see it.
#[test]
fn kernel_corruption_caught_by_invariants_and_healed() {
    let clean = verified_solve(None, Some(11));
    let mut c = ChaosConfig::new(3);
    c.compute_corrupt = FaultPlan::at(0);
    c.compute_corrupt_site = Some("kernel:".to_string());
    let engine = ChaosEngine::new(c);
    let faulty = verified_solve(Some(engine.clone()), Some(11));
    assert!(
        engine
            .log()
            .iter()
            .any(|r| r.kind == FaultKind::ComputeCorrupt),
        "kernel corruption must fire"
    );
    for ((cs, _), (fs, fe)) in clean.iter().zip(&faulty) {
        assert_eq!(cs, fs, "healed spectra must be byte-identical");
        let flagged = fe.iter().any(|e| {
            matches!(
                e,
                IntegrityEvent::Violation {
                    check: IntegrityCheck::CrossOrthogonality | IntegrityCheck::NonFinite,
                    ..
                }
            )
        });
        assert!(flagged, "orthogonality/NaN monitor must flag it: {fe:?}");
        assert!(
            fe.iter()
                .any(|e| matches!(e, IntegrityEvent::Healed { .. })),
            "the re-run must heal: {fe:?}"
        );
    }
}

// ------------------------------------------------- same-seed replay ------

/// Detection, retry and healing are part of the deterministic record: a
/// same-seed replay reproduces the spectra *and* the integrity event log
/// byte-identically, and a different seed still heals.
#[test]
fn same_seed_replay_is_byte_identical() {
    let run = |seed| verified_solve(Some(flip_engine(seed, "buf:", FaultPlan::at(0))), None);
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed: spectra and event logs must match exactly");
    let c = run(100);
    for ((sa, _), (sc, _)) in a.iter().zip(&c) {
        assert_eq!(sa, sc, "a different seed must still heal to the same state");
    }
}

// ------------------------------------------------- double corruption -----

/// Corruption that re-fires on every attempt (a hard fault, not an SEU)
/// exhausts the in-place retry budget and surfaces as a typed error on
/// *every* rank — the detect vote rides the step's own allreduce, so no
/// rank hangs waiting for a peer that already gave up.
#[test]
fn persistent_corruption_is_typed_error_on_all_ranks() {
    let engine = flip_engine(5, "buf:", FaultPlan::with_prob(1.0));
    let out = Universe::run_chaos(RANKS, engine, |comm| {
        let shape = LocalShape::new(N, RANKS, comm.rank());
        let mut ns = NavierStokes::new(
            SlabFftCpu::<f64>::new(shape, comm),
            cfg(),
            taylor_green::<f64>(shape),
        );
        ns.set_integrity(IntegrityConfig::armed());
        ns.step_verified()
    })
    .expect("typed error, not rank death");
    for r in out {
        match r {
            Err(IntegrityError::RetriesExhausted { step, attempts, .. }) => {
                assert_eq!(step, 0);
                assert_eq!(attempts, 2, "initial attempt + one retry");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}

// ------------------------------------------------- rollback escalation ---

/// With the in-place retry budget set to zero, a detected violation
/// escalates straight to the buddy-checkpoint rollback inside
/// `run_self_healing` — and the re-run from the checkpoint still lands on
/// the fault-free trajectory, byte for byte.
#[test]
fn retries_exhausted_escalates_to_buddy_rollback() {
    let heal = |retries: u32| SelfHealingConfig {
        until_step: 4,
        protect_every: 1,
        replicas: 1,
        integrity: IntegrityConfig {
            max_step_retries: retries,
            ..IntegrityConfig::armed()
        },
        max_rollbacks: 2,
        ..Default::default()
    };
    let solve = move |engine: Option<ChaosEngine>, retries: u32| {
        let f = move |comm: psdns::comm::Communicator| {
            let spectrum_comm = comm.clone();
            let r = run_self_healing(
                comm,
                N,
                cfg(),
                heal(retries),
                SlabFftCpu::<f64>::new,
                taylor_green::<f64>,
            )
            .expect("rollback absorbs the corruption")
            .expect("no shrink: every rank survives");
            let spec = energy_spectrum(&r.u, &spectrum_comm);
            (spec, r.integrity_events)
        };
        match engine {
            Some(e) => Universe::run_chaos(RANKS, e, f).expect("no crash faults"),
            None => Universe::run(RANKS, f),
        }
    };
    let clean = solve(None, 0);
    // Occurrence 2 of each `buf:` site lands in step 2 (Rk2: two transforms
    // of each direction per step), safely after the step-1 buddy protect.
    let engine = flip_engine(21, "buf:", FaultPlan::at(2));
    let faulty = solve(Some(engine.clone()), 0);
    assert!(
        engine.log().iter().any(|r| r.kind == FaultKind::BitFlip),
        "buffer flips must fire"
    );
    for ((cs, _), (fs, fe)) in clean.iter().zip(&faulty) {
        assert_eq!(cs, fs, "post-rollback spectra must be byte-identical");
        assert!(
            fe.iter()
                .any(|e| matches!(e, IntegrityEvent::Rollback { to_step: 1, .. })),
            "rollback to the step-1 checkpoint must be logged: {fe:?}"
        );
    }
}

// ------------------------------------------------- persistent buffers ----

/// Forced variant of [`cfg`]: the forcing state must roll back with the
/// rest of the pre-step snapshot.
fn forced_cfg() -> NsConfig {
    NsConfig {
        forcing: Some(Forcing::new(2.5)),
        ..cfg()
    }
}

/// Per rank: spectrum after `STEPS` verified forced steps, the event log as
/// text, and the idle wire-buffer count of the universe at the end.
fn forced_solve(engine: Option<ChaosEngine>) -> Vec<(Vec<f64>, String, usize)> {
    let f = |mut comm: psdns::comm::Communicator| {
        comm.set_abft_checksums(true);
        let shape = LocalShape::new(N, RANKS, comm.rank());
        let u = psdns::core::random_solenoidal::<f64>(shape, 3.0, 11);
        let mut ns = NavierStokes::new(SlabFftCpu::<f64>::new(shape, comm), forced_cfg(), u);
        ns.set_integrity(IntegrityConfig::armed());
        for _ in 0..STEPS {
            ns.step_verified().expect("one-shot corruption must heal");
        }
        let comm = ns.backend.comm();
        let spec = energy_spectrum(&ns.u, comm);
        // Every rank is past its last receive once the barrier completes.
        comm.barrier();
        let events = format!("{:?}", ns.integrity_events);
        (spec, events, comm.wire_buffers_idle())
    };
    match engine {
        Some(e) => Universe::run_chaos(RANKS, e, f).expect("corruption heals, job survives"),
        None => Universe::run(RANKS, f),
    }
}

/// Since the step became allocation-free, a staging-buffer flip lands in the
/// backend's *persistent* send buffer and a kernel SEU in the solver's
/// *persistent* cross-product fields, both in steady state (occurrence 2 =
/// the second step, after every buffer has been used). The in-place retry
/// must still heal byte-identically — nothing stale survives into the
/// re-run — and log exactly what the allocating implementation logged (the
/// string below was recorded at the commit before the workspace existed).
#[test]
fn corruption_of_persistent_buffers_heals_with_the_recorded_event_log() {
    const RECORDED_LOG: &str = "[Violation { step: 1, attempt: 0, check: NonFinite }, \
        Retry { step: 1, attempt: 1 }, Healed { step: 1, attempts: 1 }]";
    let clean = forced_solve(None);
    let mut seu = ChaosConfig::new(3);
    seu.compute_corrupt = FaultPlan::at(2);
    seu.compute_corrupt_site = Some("kernel:cross".to_string());
    for engine in [
        flip_engine(7, "buf:", FaultPlan::at(2)),
        ChaosEngine::new(seu),
    ] {
        let faulty = forced_solve(Some(engine.clone()));
        assert!(!engine.log().is_empty(), "the fault must fire");
        for ((cs, ce, _), (fs, fe, _)) in clean.iter().zip(&faulty) {
            assert_eq!(cs, fs, "healed spectra must be byte-identical");
            assert_eq!(ce, "[]", "clean run raises no violations");
            assert_eq!(fe, RECORDED_LOG, "event log changed");
        }
    }
}

/// A fault that re-fires on every attempt from the second step on: the
/// retry budget runs out and *everything* a step advances — the state, the
/// clock, the step counter and the forcing — must be back on the pre-step
/// snapshot, bit for bit, on every rank.
#[test]
fn retries_exhausted_leaves_the_solver_on_the_pre_step_snapshot() {
    let engine = flip_engine(5, "buf:", FaultPlan::window(1.0, 2, u64::MAX));
    let out = Universe::run_chaos(RANKS, engine, |comm| {
        let shape = LocalShape::new(N, RANKS, comm.rank());
        let u = psdns::core::random_solenoidal::<f64>(shape, 3.0, 11);
        let mut ns = NavierStokes::new(SlabFftCpu::<f64>::new(shape, comm), forced_cfg(), u);
        ns.set_integrity(IntegrityConfig::armed());
        ns.step_verified().expect("the first step is fault-free");
        let before = (
            ns.u.clone(),
            ns.time.to_bits(),
            ns.step_count,
            format!("{:?}", ns.cfg.forcing),
        );
        let err = ns.step_verified();
        let after = (
            ns.u.clone(),
            ns.time.to_bits(),
            ns.step_count,
            format!("{:?}", ns.cfg.forcing),
        );
        (err, before == after, after.2)
    })
    .expect("typed error, not rank death");
    for (err, restored, step_count) in out {
        assert!(
            matches!(err, Err(IntegrityError::RetriesExhausted { step: 1, .. })),
            "expected RetriesExhausted at step 1, got {err:?}"
        );
        assert!(
            restored,
            "u/time/step_count/forcing must equal the snapshot"
        );
        assert_eq!(step_count, 1);
    }
}

/// Duplicated and dropped packets must neither return a wire buffer to the
/// free-list twice nor leak one per fault: after a faulty run the list holds
/// no more buffers than were ever in flight at once — per message size, `P`
/// chunks from each of `P` ranks, for at most two exchanges overlapping
/// (a rank may post the next all-to-all while a peer still drains the last).
#[test]
fn duplicate_and_drop_faults_keep_the_wire_free_list_bounded() {
    let mut c = ChaosConfig::new(13);
    c.duplicate = FaultPlan::with_prob(0.25);
    c.drop = FaultPlan::with_prob(0.15);
    // Enough resends that no message is lost for good.
    c.retry.max_retries = 8;
    c.retry.backoff = std::time::Duration::from_micros(50);
    let engine = ChaosEngine::new(c);
    let clean = forced_solve(None);
    let faulty = forced_solve(Some(engine.clone()));
    for kind in [FaultKind::Duplicate, FaultKind::Drop] {
        assert!(
            engine.log().iter().any(|r| r.kind == kind),
            "{kind:?} faults must fire"
        );
    }
    // Distinct (type, length) keys of this run: the 6- and 3-variable
    // transposes, the 1-, 5- and shell-count reductions, and at most two
    // sidecar lengths.
    let sizes = 2 + 3 + 2;
    let bound = sizes * 2 * RANKS * RANKS;
    for ((cs, _, idle_clean), (fs, fe, idle)) in clean.iter().zip(&faulty) {
        assert_eq!(cs, fs, "masked faults must not change the spectra");
        assert_eq!(fe, "[]", "message faults stay below the monitors");
        assert!(
            *idle <= bound && *idle_clean <= bound,
            "wire free-list holds {idle} buffers (clean run {idle_clean}, bound {bound})"
        );
    }
}
