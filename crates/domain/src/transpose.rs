//! Index maps for the global transpose between z-slabs and y-slabs.
//!
//! Layouts (complex elements, x fastest, `nxh = n/2+1` after the
//! real-to-complex x transform):
//!
//! * **z-slab** (Fourier phase): dims `(nxh, n, mz)`,
//!   `idx = x + nxh·(y + n·zl)` — each rank owns complete x–y planes;
//! * **y-slab** (physical phase): dims `(nxh, my, n)`,
//!   `idx = x + nxh·(yl + my·z)` — each rank owns complete x–z planes;
//! * **all-to-all buffer**: one block per peer, `nv·nxh·my·mz` elements
//!   each; within a block the order is `(v, zl, yl, x)`:
//!   `idx = x + nxh·(yl + my·(zl + mz·v))`.
//!
//! All functions return chunk triples `(src_offset, dst_offset, len)` with
//! chunks contiguous on both sides — exactly what the device zero-copy
//! kernels and `memcpy2d` engines consume (paper §4.2). The x-range
//! parameter expresses the within-slab pencil split of Fig. 6 (pencils
//! split x in the z-slab phase); the y-range parameter expresses the y
//! split used in the y-slab phase.

use std::ops::Range;

use crate::decomp::Slab1d;

/// Chunk triple: `(src_offset, dst_offset, len)` in elements.
pub type Chunk = (usize, usize, usize);

/// Pack/unpack index math for the slab transpose, for `nv` interleaved
/// variables sent in one all-to-all (the paper communicates 3 velocity
/// components per transpose, Table 2).
#[derive(Copy, Clone, Debug)]
pub struct SlabTranspose {
    pub slab: Slab1d,
    /// x extent of the complex field (half spectrum).
    pub nxh: usize,
    /// Variables exchanged together.
    pub nv: usize,
}

impl SlabTranspose {
    pub fn new(slab: Slab1d, nxh: usize, nv: usize) -> Self {
        assert!(nv > 0);
        Self { slab, nxh, nv }
    }

    /// Elements per (peer, variable) block.
    pub fn block_elems(&self) -> usize {
        self.nxh * self.slab.my() * self.slab.mz()
    }

    /// Total all-to-all buffer length (all peers, all variables).
    pub fn buf_len(&self) -> usize {
        self.slab.p * self.nv * self.block_elems()
    }

    /// Length of one z-slab variable buffer.
    pub fn zslab_len(&self) -> usize {
        self.nxh * self.slab.n * self.slab.mz()
    }

    /// Length of one y-slab variable buffer.
    pub fn yslab_len(&self) -> usize {
        self.nxh * self.slab.my() * self.slab.n
    }

    /// Offset of element `(v, zl, yl, x)` of peer `dest`'s block in the
    /// all-to-all buffer. Public so device pipelines can derive `memcpy2d`
    /// shapes from the same map the host path uses.
    #[inline]
    pub fn block_idx(&self, dest: usize, v: usize, yl: usize, zl: usize, x: usize) -> usize {
        let my = self.slab.my();
        let mz = self.slab.mz();
        dest * self.nv * self.block_elems() + x + self.nxh * (yl + my * (zl + mz * v))
    }

    /// Forward transpose, sender side: chunks from a z-slab variable buffer
    /// (restricted to x range `xr` — the Fig. 6 pencil) into the send
    /// buffer block for `dest`. Chunk length = `xr.len()`.
    pub fn pack_from_zslab(&self, dest: usize, v: usize, xr: Range<usize>) -> Vec<Chunk> {
        assert!(dest < self.slab.p && v < self.nv);
        assert!(xr.end <= self.nxh);
        let (n, my, mz) = (self.slab.n, self.slab.my(), self.slab.mz());
        let mut out = Vec::with_capacity(my * mz);
        for zl in 0..mz {
            for yl in 0..my {
                let y = dest * my + yl;
                let src = xr.start + self.nxh * (y + n * zl);
                let dst = self.block_idx(dest, v, yl, zl, xr.start);
                out.push((src, dst, xr.len()));
            }
        }
        out
    }

    /// Forward transpose, sender side, one z-plane at a time: where row `y`
    /// of local plane `zl` of variable `v` (`nxh` elements) lands in the
    /// send buffer. Lets the host path transform a plane in a cache-sized
    /// buffer and pack it straight out, instead of holding a transformed
    /// copy of the whole slab.
    #[inline]
    pub fn zslab_row_dst(&self, v: usize, y: usize, zl: usize) -> usize {
        let my = self.slab.my();
        self.block_idx(y / my, v, y % my, zl, 0)
    }

    /// Forward transpose, receiver side: chunks from the receive buffer
    /// block of `src_rank` into a y-slab variable buffer, restricted to the
    /// local-y range `yr` (the y-phase pencil). Chunk length = `nxh`.
    pub fn unpack_to_yslab(&self, src_rank: usize, v: usize, yr: Range<usize>) -> Vec<Chunk> {
        self.unpack_to_yslab_iter(src_rank, v, yr).collect()
    }

    /// [`Self::unpack_to_yslab`] without the chunk list: the steady-state
    /// host path walks the map instead of materializing it.
    pub fn unpack_to_yslab_iter(
        &self,
        src_rank: usize,
        v: usize,
        yr: Range<usize>,
    ) -> impl Iterator<Item = Chunk> + '_ {
        assert!(src_rank < self.slab.p && v < self.nv);
        let (my, mz) = (self.slab.my(), self.slab.mz());
        assert!(yr.end <= my);
        (0..mz).flat_map(move |zl| {
            let z = src_rank * mz + zl;
            yr.clone().map(move |yl| {
                let src = self.block_idx(src_rank, v, yl, zl, 0);
                (src, self.nxh * (yl + my * z), self.nxh)
            })
        })
    }

    /// Inverse transpose, sender side: chunks from a y-slab variable buffer
    /// (restricted to local-y range `yr`) into the send buffer block for
    /// `dest`, whose z range the data belongs to. Chunk length = `nxh`.
    pub fn pack_from_yslab(&self, dest: usize, v: usize, yr: Range<usize>) -> Vec<Chunk> {
        self.pack_from_yslab_iter(dest, v, yr).collect()
    }

    /// [`Self::pack_from_yslab`] without the chunk list.
    pub fn pack_from_yslab_iter(
        &self,
        dest: usize,
        v: usize,
        yr: Range<usize>,
    ) -> impl Iterator<Item = Chunk> + '_ {
        assert!(dest < self.slab.p && v < self.nv);
        let (my, mz) = (self.slab.my(), self.slab.mz());
        assert!(yr.end <= my);
        (0..mz).flat_map(move |zl| {
            let z = dest * mz + zl;
            yr.clone().map(move |yl| {
                let dst = self.block_idx(dest, v, yl, zl, 0);
                (self.nxh * (yl + my * z), dst, self.nxh)
            })
        })
    }

    /// Inverse transpose, receiver side: chunks from the receive buffer
    /// block of `src_rank` (which owns a y range) into a z-slab variable
    /// buffer, restricted to x range `xr`. Chunk length = `xr.len()`.
    pub fn unpack_to_zslab(&self, src_rank: usize, v: usize, xr: Range<usize>) -> Vec<Chunk> {
        self.unpack_to_zslab_iter(src_rank, v, xr).collect()
    }

    /// [`Self::unpack_to_zslab`] without the chunk list.
    pub fn unpack_to_zslab_iter(
        &self,
        src_rank: usize,
        v: usize,
        xr: Range<usize>,
    ) -> impl Iterator<Item = Chunk> + '_ {
        assert!(src_rank < self.slab.p && v < self.nv);
        assert!(xr.end <= self.nxh);
        let (n, my, mz) = (self.slab.n, self.slab.my(), self.slab.mz());
        (0..mz).flat_map(move |zl| {
            let xr = xr.clone();
            (0..my).map(move |yl| {
                let y = src_rank * my + yl;
                let src = self.block_idx(src_rank, v, yl, zl, xr.start);
                (src, xr.start + self.nxh * (y + n * zl), xr.len())
            })
        })
    }
}

/// Apply a chunk list: `dst[d..d+len] = src[s..s+len]` for every chunk.
/// Host-side helper used by the CPU reference path and by tests; the device
/// path feeds the same chunks to zero-copy kernels.
pub fn apply_chunks<T: Copy>(chunks: &[Chunk], src: &[T], dst: &mut [T]) {
    apply_chunk_iter(chunks.iter().copied(), src, dst);
}

/// [`apply_chunks`] over one of the `*_iter` maps.
pub fn apply_chunk_iter<T: Copy>(chunks: impl Iterator<Item = Chunk>, src: &[T], dst: &mut [T]) {
    for (s, d, len) in chunks {
        dst[d..d + len].copy_from_slice(&src[s..s + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Slab1d;

    /// Full round trip at tiny scale: build per-rank z-slabs of a global
    /// field, pack, exchange (emulated), unpack, and verify the y-slabs;
    /// then invert and verify we recover the z-slabs.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn forward_and_inverse_transpose_roundtrip() {
        let n = 8;
        let p = 4;
        let nv = 2;
        let slab = Slab1d::new(n, p);
        let t = SlabTranspose::new(slab, n / 2 + 1, nv);
        let nxh = t.nxh;
        let (my, mz) = (slab.my(), slab.mz());

        let global = |v: usize, x: usize, y: usize, z: usize| -> u32 {
            (v * 1_000_000 + x * 10_000 + y * 100 + z) as u32
        };

        // Build z-slabs.
        let mut zslabs: Vec<Vec<Vec<u32>>> = Vec::new(); // [rank][var][idx]
        for r in 0..p {
            let mut vars = Vec::new();
            for v in 0..nv {
                let mut buf = vec![0u32; t.zslab_len()];
                for zl in 0..mz {
                    for y in 0..n {
                        for x in 0..nxh {
                            buf[x + nxh * (y + n * zl)] = global(v, x, y, r * mz + zl);
                        }
                    }
                }
                vars.push(buf);
            }
            zslabs.push(vars);
        }

        // Pack (full x range — no pencil split here).
        let mut send: Vec<Vec<u32>> = (0..p).map(|_| vec![0u32; t.buf_len()]).collect();
        for r in 0..p {
            for d in 0..p {
                for v in 0..nv {
                    let chunks = t.pack_from_zslab(d, v, 0..nxh);
                    apply_chunks(&chunks, &zslabs[r][v], &mut send[r]);
                }
            }
        }

        // Emulate the all-to-all: recv[d] block s = send[s] block d.
        let blk = t.nv * t.block_elems();
        let mut recv: Vec<Vec<u32>> = (0..p).map(|_| vec![0u32; t.buf_len()]).collect();
        for d in 0..p {
            for s in 0..p {
                recv[d][s * blk..(s + 1) * blk].copy_from_slice(&send[s][d * blk..(d + 1) * blk]);
            }
        }

        // Unpack to y-slabs and verify against the global field.
        let mut yslabs: Vec<Vec<Vec<u32>>> = Vec::new();
        for r in 0..p {
            let mut vars = Vec::new();
            for v in 0..nv {
                let mut buf = vec![0u32; t.yslab_len()];
                for s in 0..p {
                    let chunks = t.unpack_to_yslab(s, v, 0..my);
                    apply_chunks(&chunks, &recv[r], &mut buf);
                }
                vars.push(buf);
            }
            yslabs.push(vars);
        }
        for r in 0..p {
            for v in 0..nv {
                for z in 0..n {
                    for yl in 0..my {
                        for x in 0..nxh {
                            assert_eq!(
                                yslabs[r][v][x + nxh * (yl + my * z)],
                                global(v, x, r * my + yl, z),
                                "rank {r} var {v} x {x} yl {yl} z {z}"
                            );
                        }
                    }
                }
            }
        }

        // Inverse: pack from y-slabs, exchange, unpack to z-slabs.
        let mut send2: Vec<Vec<u32>> = (0..p).map(|_| vec![0u32; t.buf_len()]).collect();
        for r in 0..p {
            for d in 0..p {
                for v in 0..nv {
                    let chunks = t.pack_from_yslab(d, v, 0..my);
                    apply_chunks(&chunks, &yslabs[r][v], &mut send2[r]);
                }
            }
        }
        let mut recv2: Vec<Vec<u32>> = (0..p).map(|_| vec![0u32; t.buf_len()]).collect();
        for d in 0..p {
            for s in 0..p {
                recv2[d][s * blk..(s + 1) * blk].copy_from_slice(&send2[s][d * blk..(d + 1) * blk]);
            }
        }
        for r in 0..p {
            for v in 0..nv {
                let mut buf = vec![0u32; t.zslab_len()];
                for s in 0..p {
                    let chunks = t.unpack_to_zslab(s, v, 0..nxh);
                    apply_chunks(&chunks, &recv2[r], &mut buf);
                }
                assert_eq!(buf, zslabs[r][v], "rank {r} var {v}");
            }
        }
    }

    /// Pencil-restricted packing must tile the full pack exactly.
    #[test]
    fn pencil_chunks_tile_full_pack() {
        let slab = Slab1d::new(12, 3);
        let t = SlabTranspose::new(slab, 7, 1);
        let src: Vec<u64> = (0..t.zslab_len() as u64).collect();
        let mut full = vec![u64::MAX; t.buf_len()];
        let mut pieced = vec![u64::MAX; t.buf_len()];
        for d in 0..3 {
            apply_chunks(&t.pack_from_zslab(d, 0, 0..7), &src, &mut full);
            // Split x into 3 uneven pencils: 3 + 2 + 2.
            for xr in [0..3, 3..5, 5..7] {
                apply_chunks(&t.pack_from_zslab(d, 0, xr), &src, &mut pieced);
            }
        }
        assert_eq!(full, pieced);
    }

    #[test]
    fn chunk_offsets_in_bounds() {
        let slab = Slab1d::new(8, 2);
        let t = SlabTranspose::new(slab, 5, 3);
        for d in 0..2 {
            for v in 0..3 {
                for (s, dd, l) in t.pack_from_zslab(d, v, 1..4) {
                    assert!(s + l <= t.zslab_len());
                    assert!(dd + l <= t.buf_len());
                }
                for (s, dd, l) in t.unpack_to_yslab(d, v, 0..slab.my()) {
                    assert!(s + l <= t.buf_len());
                    assert!(dd + l <= t.yslab_len());
                }
            }
        }
    }
}
