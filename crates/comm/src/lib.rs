//! # psdns-comm
//!
//! A thread-backed message-passing runtime with MPI-like semantics. This is
//! the stand-in for IBM Spectrum MPI in the SC '19 paper reproduction: the
//! solver code in `psdns-core` is written against communicators, blocking
//! and nonblocking all-to-alls, and communicator splits exactly as the
//! paper's Fortran code is written against MPI, but "ranks" are threads in
//! one address space.
//!
//! ## Semantics preserved from MPI
//!
//! * point-to-point `send`/`recv` with tag matching and per-(src,dst) FIFO
//!   ordering;
//! * collectives must be called by all ranks of a communicator in the same
//!   order (they are sequenced by an internal collective counter);
//! * `ialltoall` returns a [`Request`] immediately; the exchange completes
//!   on [`Request::wait`], allowing genuine compute/communication overlap
//!   (paper §3.4 posts `MPI_IALLTOALL` per pencil and waits later);
//! * `split` builds row/column communicators for 2-D pencil decompositions
//!   (paper §3.1).
//!
//! ## Example
//!
//! ```
//! use psdns_comm::Universe;
//! let sums = Universe::run(4, |comm| {
//!     let mine = vec![comm.rank() as u64; comm.size()];
//!     let all = comm.alltoall(&mine);
//!     all.iter().sum::<u64>()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]); // 0+1+2+3 from every peer
//! ```

mod abft;
mod coll;
mod comm;
mod request;
mod universe;
mod verify;
mod wire;

pub use abft::AbftData;
pub use comm::{AdaptiveWatchdog, CommError, Communicator};
pub use psdns_chaos::WatchdogPolicy;
pub use request::Request;
pub use universe::{Universe, UniverseError};

// Re-exported so downstream crates can configure chaos campaigns without a
// direct psdns-chaos dependency.
pub use psdns_chaos::{ChaosConfig, ChaosEngine, FaultKind, FaultPlan, RetryPolicy};

// Collective-matching verification vocabulary (see
// [`Communicator::set_collective_verifier`]), re-exported the same way.
pub use psdns_analyze::{
    CollectiveFingerprint, CollectiveKind, CollectiveMismatch, CollectiveVerifier,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_are_rank_ordered() {
        let out = Universe::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }
}
