//! After warm-up, a Navier–Stokes step must not go to the allocator for
//! anything field-sized: the solver's workspace, the backend's transform
//! buffers and the all-to-all wire buffers are all persistent. A counting
//! global allocator measures what one step requests, process-wide (every
//! rank thread), and the test prints the figure so a regression names its
//! size. One spectral field at this size is 58 KiB at P = 1, so a single
//! stray field clone trips the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use psdns_comm::Universe;
use psdns_core::{
    normalize_energy, random_solenoidal, Forcing, IntegrityConfig, LocalShape, NavierStokes,
    NsConfig, SlabFftCpu, TimeScheme,
};

struct CountingAlloc {
    bytes: AtomicU64,
}

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc {
    bytes: AtomicU64::new(0),
};

fn requested() -> u64 {
    GLOBAL.bytes.load(Ordering::Relaxed)
}

const N: usize = 24;
const WARMUP: usize = 3;

/// Bytes the whole process requests during one step (all `p` ranks) after
/// `WARMUP` steps. Armed = `step_verified` under every monitor with ABFT
/// checksums on the collectives.
fn bytes_per_step(p: usize, scheme: TimeScheme, armed: bool) -> u64 {
    let per_rank = Universe::run(p, |mut comm| {
        comm.set_abft_checksums(armed);
        let world = comm.clone();
        let shape = LocalShape::new(N, p, comm.rank());
        let mut u = random_solenoidal::<f64>(shape, 4.0, 7);
        normalize_energy(&mut u, 0.5, &world);
        let cfg = NsConfig {
            nu: 0.01,
            dt: 2e-3,
            scheme,
            forcing: Some(Forcing::new(2.5)),
            dealias: true,
            phase_shift: false,
        };
        let mut ns = NavierStokes::new(SlabFftCpu::new(shape, comm), cfg, u);
        if armed {
            ns.set_integrity(IntegrityConfig::armed());
        }
        let mut advance = || {
            if armed {
                ns.step_verified().expect("fault-free step verifies");
            } else {
                ns.step();
            }
        };
        for _ in 0..WARMUP {
            advance();
        }
        // Between the first two barriers no rank is stepping; after the
        // third every rank has finished. The barriers' own few bytes count.
        world.barrier();
        let before = requested();
        world.barrier();
        advance();
        world.barrier();
        requested() - before
    });
    per_rank[0]
}

/// One test function: the counter is process-wide, so the cases must not
/// run on parallel test threads.
#[test]
fn steady_state_step_requests_no_field_sized_memory() {
    const PLAIN_BOUND: u64 = 64 << 10;
    // The armed step adds the verdict allreduces (a few hundred bytes of
    // gathered sums per rank) to the plain step; sidecars, clean copies and
    // the snapshot are recycled. Same bound.
    const ARMED_BOUND: u64 = 64 << 10;
    for scheme in [TimeScheme::Rk2, TimeScheme::Rk4] {
        for p in [1, 2] {
            let bytes = bytes_per_step(p, scheme, false);
            println!("{scheme:?} P={p}: {bytes} B requested by one step()");
            assert!(
                bytes < PLAIN_BOUND,
                "{scheme:?} P={p}: one step requested {bytes} B (bound {PLAIN_BOUND})"
            );
        }
    }
    let bytes = bytes_per_step(2, TimeScheme::Rk2, true);
    println!("Rk2 P=2 armed+ABFT: {bytes} B requested by one step_verified()");
    assert!(
        bytes < ARMED_BOUND,
        "armed: one step_verified requested {bytes} B (bound {ARMED_BOUND})"
    );
}
