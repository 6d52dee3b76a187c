//! Recycled wire buffers for collective payloads.
//!
//! Every collective payload crosses the in-process "network" as a boxed
//! `Vec<T>` owned by its packet. Allocating that box and vector per chunk
//! (and a second one for the ABFT clean copy) made a steady-state solver
//! step request hundreds of megabytes it freed again microseconds later.
//! [`WirePool`] is the in-process analogue of MPI persistent / registered
//! buffers: a per-universe free-list keyed by element type and length. A
//! sender takes its wire buffer from the list ([`WirePool::take`]); the
//! receiver gives it back once the payload has been copied out
//! ([`WirePool::give`]).
//!
//! Ownership makes the accounting safe under chaos: a buffer is a uniquely
//! owned `Box`, so it can be given back at most once. A dropped packet frees
//! its buffer (the list refills with a fresh allocation on the next take); a
//! duplicated packet's copy is a fresh clone that is freed, not pooled, when
//! the duplicate filter discards it. The list therefore never holds more
//! buffers of one key than were simultaneously in flight.

use std::any::{Any, TypeId};
use std::collections::HashMap;

use psdns_sync::Mutex;

/// A collective payload in its wire buffer. The box — not the vector — is
/// what a packet carries (type-erased, as `Box<dyn Any + Send>`) and what
/// the free-list recycles, so a payload keeps one box for life instead of
/// being unboxed on receipt and re-boxed on the next send.
#[allow(clippy::box_collection)]
pub(crate) type WireBuf<T> = Box<Vec<T>>;

/// `(element type, element count)` of a pooled `Vec<T>`.
type Key = (TypeId, usize);

#[derive(Default)]
pub(crate) struct WirePool {
    free: Mutex<HashMap<Key, Vec<Box<dyn Any + Send>>>>,
}

impl WirePool {
    /// An empty wire buffer with room for `len` elements, recycled when one
    /// that last carried `len` elements of the same type is idle. The caller
    /// fills it to exactly `len`.
    pub(crate) fn take<T: Send + 'static>(&self, len: usize) -> WireBuf<T> {
        let idle = self
            .free
            .lock()
            .get_mut(&(TypeId::of::<T>(), len))
            .and_then(Vec::pop);
        // The key carries the type, so the downcast cannot fail.
        let mut buf = idle
            .and_then(|b| b.downcast::<Vec<T>>().ok())
            .unwrap_or_else(|| Box::new(Vec::with_capacity(len)));
        buf.clear();
        buf
    }

    /// Return a wire buffer whose payload has been consumed; it is filed
    /// under the length it carried.
    pub(crate) fn give<T: Send + 'static>(&self, buf: WireBuf<T>) {
        let key = (TypeId::of::<T>(), buf.len());
        self.free.lock().entry(key).or_default().push(buf);
    }

    /// Idle buffers currently on the list, over all keys.
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_a_given_buffer_of_the_same_key_only() {
        let pool = WirePool::default();
        let mut a = pool.take::<u32>(3);
        a.extend_from_slice(&[1, 2, 3]);
        let addr = a.as_ptr();
        pool.give(a);
        assert_eq!(pool.idle(), 1);
        // Different length and different type miss the entry...
        let (b, c) = (pool.take::<u32>(2), pool.take::<u64>(3));
        assert_eq!(pool.idle(), 1);
        assert!(b.is_empty() && c.is_empty());
        // ...the same key hits it, emptied.
        let d = pool.take::<u32>(3);
        assert_eq!(d.as_ptr(), addr);
        assert!(d.is_empty());
        assert_eq!(pool.idle(), 0);
    }
}
