//! ABFT-style payload checksums for collectives.
//!
//! Every checksummed send (see `Communicator::send_coll`) computes one FNV-1a
//! hash per [`ABFT_BLOCK`]-element block of the payload and ships the hashes
//! as a sidecar on the packet. The receiver recomputes them on arrival: a
//! mismatch localizes the corruption to a block and triggers a bounded
//! retransmission from the sender's retained clean copy, so a flipped bit in
//! transit surfaces as a typed [`crate::CommError::Corrupted`] (or heals
//! silently) instead of poisoning the spectra downstream. This is the
//! algorithm-based fault-tolerance posture the exascale SDC literature
//! assumes: detection must be cheaper than the data motion it guards.
//!
//! The [`AbftData`] element trait exposes exactly what checksumming and
//! seeded fault injection need — a canonical bit pattern to hash and a way
//! to flip an addressed bit — for every payload type the collectives carry:
//! primitive integers, floats, `bool`, small tuples, and
//! [`psdns_fft::Complex`].

use psdns_fft::{Complex, Real};

/// Elements of the payload block are hashed this many at a time; a checksum
/// mismatch therefore localizes corruption to a 1024-element block, which is
/// what [`crate::CommError::Corrupted`] reports.
pub(crate) const ABFT_BLOCK: usize = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over the eight little-endian bytes of a word.
#[inline]
fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// An element type that checksummed collectives can carry: hashable by its
/// canonical bit pattern, and bit-addressable so the chaos layer can flip a
/// chosen bit deterministically.
pub trait AbftData: Clone + Send + 'static {
    /// Number of addressable bits in one element (the fault-injection
    /// address space; a payload of `n` elements has `n · BITS` flippable
    /// bits).
    const BITS: u32;
    /// Accumulate this element's canonical bit pattern into an FNV-1a hash.
    fn fold(&self, h: u64) -> u64;
    /// Flip bit `bit` (`< Self::BITS`) of the element's representation.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! abft_int {
    ($($t:ty),* $(,)?) => {$(
        impl AbftData for $t {
            const BITS: u32 = <$t>::BITS;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                fnv_word(h, *self as u64)
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t) << bit;
            }
        }
    )*};
}

abft_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! abft_float {
    ($t:ty, $bits:ty) => {
        impl AbftData for $t {
            const BITS: u32 = <$bits>::BITS;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                fnv_word(h, self.to_bits() as u64)
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                *self = <$t>::from_bits(self.to_bits() ^ ((1 as $bits) << bit));
            }
        }
    };
}

abft_float!(f32, u32);
abft_float!(f64, u64);

impl AbftData for bool {
    const BITS: u32 = 1;
    #[inline]
    fn fold(&self, h: u64) -> u64 {
        fnv_word(h, *self as u64)
    }
    #[inline]
    fn flip_bit(&mut self, _bit: u32) {
        *self = !*self;
    }
}

/// Spectral payloads: hash/flip the re and im halves back to back. The
/// `Real` bit-access hooks keep this generic over `f32`/`f64` pencils.
impl<T: Real> AbftData for Complex<T> {
    const BITS: u32 = 2 * T::BITS;
    #[inline]
    fn fold(&self, h: u64) -> u64 {
        fnv_word(fnv_word(h, self.re.to_bits_u64()), self.im.to_bits_u64())
    }
    #[inline]
    fn flip_bit(&mut self, bit: u32) {
        if bit < T::BITS {
            self.re = T::from_bits_u64(self.re.to_bits_u64() ^ (1u64 << bit));
        } else {
            self.im = T::from_bits_u64(self.im.to_bits_u64() ^ (1u64 << (bit - T::BITS)));
        }
    }
}

macro_rules! abft_tuple {
    ($(($($n:tt $T:ident),+)),* $(,)?) => {$(
        impl<$($T: AbftData),+> AbftData for ($($T,)+) {
            const BITS: u32 = 0 $(+ $T::BITS)+;
            #[inline]
            fn fold(&self, h: u64) -> u64 {
                let mut h = h;
                $(h = self.$n.fold(h);)+
                h
            }
            #[inline]
            fn flip_bit(&mut self, bit: u32) {
                let mut bit = bit;
                $(
                    if bit < $T::BITS {
                        return self.$n.flip_bit(bit);
                    }
                    bit -= $T::BITS;
                )+
                let _ = bit;
            }
        }
    )*};
}

abft_tuple!((0 A), (0 A, 1 B), (0 A, 1 B, 2 C), (0 A, 1 B, 2 C, 3 D));

/// One FNV-1a checksum per [`ABFT_BLOCK`]-element block, in payload order,
/// appended to `out` (a recycled sidecar buffer on the send path). Empty
/// payloads produce an empty sidecar (nothing to protect).
pub(crate) fn block_checksums_into<T: AbftData>(data: &[T], out: &mut Vec<u64>) {
    out.extend(
        data.chunks(ABFT_BLOCK)
            .map(|blk| blk.iter().fold(FNV_OFFSET, |h, x| x.fold(h))),
    );
}

#[cfg(test)]
pub(crate) fn block_checksums<T: AbftData>(data: &[T]) -> Vec<u64> {
    let mut out = Vec::new();
    block_checksums_into(data, &mut out);
    out
}

/// Recompute the sidecar and report the first mismatching block, if any. A
/// sidecar of the wrong length (a corrupted sidecar itself, or a truncated
/// payload) counts as block 0.
pub(crate) fn first_corrupt_block<T: AbftData>(data: &[T], crcs: &[u64]) -> Option<usize> {
    if crcs.len() != data.len().div_ceil(ABFT_BLOCK) {
        return Some(0);
    }
    data.chunks(ABFT_BLOCK).enumerate().find_map(|(i, blk)| {
        (blk.iter().fold(FNV_OFFSET, |h, x| x.fold(h)) != crcs[i]).then_some(i)
    })
}

/// Flip one seeded bit of the payload: `draw` (a value from
/// [`psdns_chaos::ChaosEngine::draw`]) addresses a uniformly chosen bit of
/// the `len · BITS` total. No-op on empty payloads.
pub(crate) fn flip_payload_bit<T: AbftData>(data: &mut [T], draw: u64) {
    if data.is_empty() {
        return;
    }
    let total = data.len() as u64 * T::BITS as u64;
    let bit = draw % total;
    data[(bit / T::BITS as u64) as usize].flip_bit((bit % T::BITS as u64) as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn checksums_cover_blocks_and_tail() {
        let data: Vec<u64> = (0..ABFT_BLOCK as u64 * 2 + 7).collect();
        let crcs = block_checksums(&data);
        assert_eq!(crcs.len(), 3);
        assert_eq!(first_corrupt_block(&data, &crcs), None);
        assert!(block_checksums::<u64>(&[]).is_empty());
    }

    #[test]
    fn tuple_flip_addresses_components() {
        let mut t = (0u64, 0usize, 0u64);
        t.flip_bit(64 + 3); // second component, bit 3
        assert_eq!(t, (0, 8, 0));
        t.flip_bit(64 + 64 + 63); // third component, top bit
        assert_eq!(t, (0, 8, 1 << 63));
    }

    #[test]
    fn complex_flip_is_involutive_and_detected() {
        let mut data = vec![psdns_fft::Complex64::new(1.25, -3.5); 10];
        let crcs = block_checksums(&data);
        data[7].flip_bit(64 + 13); // im mantissa bit
        assert_eq!(first_corrupt_block(&data, &crcs), Some(0));
        data[7].flip_bit(64 + 13);
        assert_eq!(first_corrupt_block(&data, &crcs), None);
    }

    #[test]
    fn wrong_sidecar_length_is_corruption() {
        let data = vec![1u32; 8];
        assert_eq!(first_corrupt_block(&data, &[]), Some(0));
    }

    proptest! {
        /// Any single bit flip anywhere in an f64 payload is detected, and
        /// the reported block is the one holding the flipped element.
        #[test]
        fn single_bit_flip_always_detected_f64(
            len in 1usize..4000,
            seed in 0u64..u64::MAX,
            bit in 0u64..u64::MAX,
        ) {
            let mut data: Vec<f64> = (0..len)
                .map(|i| (seed.wrapping_add(i as u64) as f64) * 1e-3)
                .collect();
            let crcs = block_checksums(&data);
            let bit = bit % (len as u64 * 64);
            let elem = (bit / 64) as usize;
            data[elem].flip_bit((bit % 64) as u32);
            prop_assert_eq!(first_corrupt_block(&data, &crcs), Some(elem / ABFT_BLOCK));
        }

        /// Same guarantee for u32 payloads (the metadata collectives).
        #[test]
        fn single_bit_flip_always_detected_u32(
            len in 1usize..3000,
            seed in 0u32..u32::MAX,
            bit in 0u64..u64::MAX,
        ) {
            let mut data: Vec<u32> = (0..len).map(|i| seed.wrapping_add(i as u32)).collect();
            let crcs = block_checksums(&data);
            let bit = bit % (len as u64 * 32);
            let elem = (bit / 32) as usize;
            data[elem].flip_bit((bit % 32) as u32);
            prop_assert_eq!(first_corrupt_block(&data, &crcs), Some(elem / ABFT_BLOCK));
        }
    }
}
