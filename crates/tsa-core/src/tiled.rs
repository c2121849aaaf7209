//! `t×t×t` tile-wavefront score computation.
//!
//! The plane-rolling kernel in [`crate::score_only`] parallelizes over the
//! rows of each anti-diagonal *cell* plane — a barrier every `O(n²)` cells
//! and vector rows that rarely exceed a few dozen lanes. This module
//! schedules rayon over anti-diagonal planes of **tiles** instead: the
//! lattice is cut into `t×t×t` blocks ([`tsa_wavefront::TileGrid`]), tiles
//! on a tile plane `D = I + J + K` are mutually independent, and each tile
//! runs the slab row kernels ([`crate::kernel`], [`crate::kernel_i16`])
//! over its own cells sequentially — long unit-stride rows, barriers every
//! `O(n²·t)` cells, and cache-sized working sets.
//!
//! Correctness of cross-tile reads: a row of tile `(I, J, K)` at cell
//! `(i, j)` reads rows `(i−1, j−1)`, `(i−1, j)`, `(i, j−1)` over
//! `k ∈ [kb, khi]` with `kb = klo−1` reaching one cell into tile `K−1`.
//! Every such read lands in this tile (already computed — the sweep goes
//! `i` outer, `j` inner) or in a tile with strictly smaller `I + J + K`,
//! complete before this tile plane began. Writes stay strictly inside the
//! tile: the row is computed in a per-thread buffer seeded from the grid,
//! and only cells `k ≥ klo` are copied back — re-writing the seed cell of
//! tile `K−1` would race with same-plane readers.
//!
//! The sweep keeps the full lattice (`O(n³)` memory, like
//! [`crate::wavefront`]) but produces only the score; cancellation is
//! polled between tile planes (authoritative — every started plane
//! finishes) and again at every tile row of `a` for fast reaction.

use crate::aligner::AlignError;
use crate::cancel::CancelProgress;
use crate::dp::{Kernel, NEG_INF};
use crate::kernel::{slab_row, Profiles, ResolvedKernel, SlabRow};
use crate::kernel_i16::{I16Profiles, RowSel, SlabI16};
use crate::run::{RunCtx, UNSTOPPABLE};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::executor::run_tiles_wavefront;
use tsa_wavefront::plane::Extents;
use tsa_wavefront::{SharedGrid, TileGrid};

/// Default tile edge: wide enough that a 16-lane AVX2 row does two full
/// steps inside a tile, small enough that a tile's working set
/// (4·t² predecessor cells) stays cache-resident.
pub const DEFAULT_TILE: usize = 32;

/// Tile-wavefront score under the `auto` kernel: `O(n³)` time, full
/// lattice, rayon over tile anti-diagonal planes.
pub fn score_tiles(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, tile: usize) -> i32 {
    score(a, b, c, scoring, tile, &RunCtx::default()).expect(UNSTOPPABLE)
}

/// Loop-invariant context of one tile sweep, shared by every tile worker.
struct TileCtx<'a> {
    kernel: &'a Kernel<'a>,
    grid: &'a SharedGrid<i32>,
    e: Extents,
    tg: TileGrid,
    rk: ResolvedKernel,
    prof: Option<&'a Profiles>,
    prof16: Option<&'a I16Profiles>,
    g2: i32,
    ra: &'a [u8],
    rb: &'a [u8],
    /// Polled before every tile row.
    run: &'a RunCtx<'a>,
}

/// Tile-wavefront score with `ctx`'s SIMD kernel inside each tile. The
/// token is polled between tile planes (authoritative — every started
/// plane finishes) and at every tile row of `a` for fast reaction. A
/// `tile` of 0 is treated as 1.
pub fn score(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    tile: usize,
    ctx: &RunCtx<'_>,
) -> Result<i32, AlignError> {
    let rk = ctx.kernel.resolve();
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let tg = TileGrid::new(e, tile.max(1));
    let grid = SharedGrid::new(e.cells(), NEG_INF);
    let prof =
        (!rk.is_scalar()).then(|| Profiles::new(scoring, a.residues(), b.residues(), c.residues()));
    let prof16 = rk
        .is_i16()
        .then(|| I16Profiles::new(scoring, a.residues(), b.residues(), c.residues()))
        .flatten();
    let tctx = TileCtx {
        kernel: &kernel,
        grid: &grid,
        e,
        tg,
        rk,
        prof: prof.as_ref(),
        prof16: prof16.as_ref(),
        g2: 2 * scoring.gap_linear(),
        ra: a.residues(),
        rb: b.residues(),
        run: ctx,
    };
    let counted = AtomicU64::new(0);
    let run = |ti: usize, tj: usize, tk: usize| compute_tile(&tctx, ti, tj, tk, &counted);
    // The executor polls between tile planes, but a token firing *during*
    // a plane makes `compute_tile` bail mid-tile — the plane then
    // "finishes" with holes. Only a full cell count proves the
    // destination cell was written.
    let completed = run_tiles_wavefront(&tg, run, || ctx.should_stop()).is_ok()
        && counted.load(Ordering::Relaxed) == e.cells() as u64;
    if completed {
        // SAFETY: the sweep has finished; exclusive access.
        Ok(unsafe { grid.get(e.index(n1, n2, n3)) })
    } else {
        Err(AlignError::Cancelled(CancelProgress {
            cells_done: counted.load(Ordering::Relaxed),
            cells_total: e.cells() as u64,
        }))
    }
}

thread_local! {
    /// Per-thread row buffer: rows are computed here and copied back so no
    /// write ever leaves the tile (see the module doc).
    static ROWBUF: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread `i16` mirror state, recreated when a pass needs larger
    /// rows than the last one.
    static SLAB16: RefCell<Option<(usize, SlabI16)>> = const { RefCell::new(None) };
}

/// Compute every cell of tile `(ti, tj, tk)`, adding finished tile rows to
/// `counted`. Polls the run's token before each row of `a` within the
/// tile and returns early (leaving the tile incomplete) when it fires —
/// the caller stops the sweep before anything reads the partial tile.
fn compute_tile(ctx: &TileCtx<'_>, ti: usize, tj: usize, tk: usize, counted: &AtomicU64) {
    let ((ilo, ihi), (jlo, jhi), (klo, khi)) = ctx.tg.cell_ranges(ti, tj, tk);
    let TileCtx {
        kernel, grid, e, ..
    } = *ctx;
    // SAFETY: writes land in this tile's own cells; reads come from cells
    // of this tile already computed this call or from tiles on strictly
    // smaller tile planes, complete before this plane started.
    let cell = |i: usize, j: usize, k: usize| {
        let v = kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            grid.get(e.index(pi, pj, pk))
        });
        unsafe { grid.set(e.index(i, j, k), v) };
    };
    let row_cells = ((jhi - jlo + 1) * (khi - klo + 1)) as u64;
    let Some(prof) = ctx.prof else {
        for i in ilo..=ihi {
            if ctx.run.should_stop() {
                return;
            }
            for j in jlo..=jhi {
                for k in klo..=khi {
                    cell(i, j, k);
                }
            }
            counted.fetch_add(row_cells, Ordering::Relaxed);
        }
        return;
    };
    // SIMD rows run from the seed cell kb (one cell into tile K−1, or the
    // scalar-computed k = 0 cell) through khi.
    let kb = klo.max(1) - 1;
    let w = khi - kb + 1;
    ROWBUF.with(|rb| {
        SLAB16.with(|sl| {
            let mut rowbuf = rb.borrow_mut();
            if rowbuf.len() < w {
                rowbuf.resize(w, 0);
            }
            let mut slab_store = sl.borrow_mut();
            if ctx.prof16.is_some() {
                let cap = ctx.tg.tile() + 1;
                if !matches!(&*slab_store, Some((c, _)) if *c >= cap) {
                    *slab_store = Some((cap, SlabI16::new(cap)));
                }
            }
            let mut slab16 = slab_store.as_mut().map(|(_, s)| s);
            for i in ilo..=ihi {
                if ctx.run.should_stop() {
                    return;
                }
                if i == 0 {
                    for j in jlo..=jhi {
                        for k in klo..=khi {
                            cell(i, j, k);
                        }
                    }
                    counted.fetch_add(row_cells, Ordering::Relaxed);
                    continue;
                }
                let ai = ctx.ra[i - 1];
                // Mirrors carry from row j to j+1 of the same i only.
                if let Some(s16) = slab16.as_mut() {
                    s16.begin_slab();
                }
                for j in jlo..=jhi {
                    if j == 0 {
                        for k in klo..=khi {
                            cell(i, j, k);
                        }
                        continue;
                    }
                    if klo == 0 {
                        cell(i, j, 0);
                    }
                    if w < 2 {
                        continue;
                    }
                    let bj = ctx.rb[j - 1];
                    // SAFETY: see `cell` — the predecessor slices are
                    // complete and the copy-back targets only this tile's
                    // cells (k ≥ kb + 1 ≥ klo). Slices stay in bounds:
                    // kb + w − 1 = khi ≤ n3.
                    unsafe {
                        let sl = |i_: usize, j_: usize| {
                            std::slice::from_raw_parts(grid.as_ptr().add(e.index(i_, j_, kb)), w)
                        };
                        rowbuf[0] = grid.get(e.index(i, j, kb));
                        let row = SlabRow {
                            g2: ctx.g2,
                            sab: prof.ab(ai)[j - 1],
                            sac: &prof.ac(ai)[kb..khi],
                            sbc: &prof.bc(bj)[kb..khi],
                            prev_j1: sl(i - 1, j - 1),
                            prev_j: sl(i - 1, j),
                            cur_j1: sl(i, j - 1),
                        };
                        match (ctx.prof16, slab16.as_mut()) {
                            (Some(p16), Some(s16)) => {
                                let sel = RowSel {
                                    prof: p16,
                                    ai,
                                    bj,
                                    k_off: kb,
                                };
                                s16.row(ctx.rk, &sel, &row, &mut rowbuf[..w]);
                            }
                            _ => slab_row(ctx.rk, &row, &mut rowbuf[..w]),
                        }
                        let dst = std::slice::from_raw_parts_mut(
                            grid.as_ptr().add(e.index(i, j, kb + 1)),
                            w - 1,
                        );
                        dst.copy_from_slice(&rowbuf[1..w]);
                    }
                }
                counted.fetch_add(row_cells, Ordering::Relaxed);
            }
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::kernel::SimdKernel;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn score_slabs(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
        crate::score_only::score_slabs_with(a, b, c, scoring, SimdKernel::Auto)
    }

    #[test]
    fn tiled_score_matches_slabs_across_tile_sizes() {
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed + 200, 14);
            let want = score_slabs(&a, &b, &c, &s());
            for tile in [1, 3, 4, 7, 16, 64] {
                assert_eq!(
                    score_tiles(&a, &b, &c, &s(), tile),
                    want,
                    "seed {seed} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn every_kernel_agrees_on_tiles() {
        let (a, b, c) = family_triple(91, 33);
        let want = score_slabs(&a, &b, &c, &s());
        for name in ["scalar", "sse2", "avx2", "sse2-i16", "avx2-i16", "auto"] {
            let simd = SimdKernel::by_name(name).unwrap();
            if !simd.is_native() {
                continue;
            }
            for tile in [8, 32] {
                assert_eq!(
                    score(&a, &b, &c, &s(), tile, &RunCtx::default().kernel(simd)).unwrap(),
                    want,
                    "kernel {name} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn non_dna_scorings_and_alphabets_agree() {
        use tsa_seq::gen::random_seq;
        use tsa_seq::Alphabet;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let a = random_seq(Alphabet::Protein, 21, &mut rng);
        let b = random_seq(Alphabet::Protein, 26, &mut rng);
        let c = random_seq(Alphabet::Protein, 17, &mut rng);
        let scoring = Scoring::blosum62();
        assert_eq!(
            score_tiles(&a, &b, &c, &scoring, 8),
            score_slabs(&a, &b, &c, &scoring)
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGTAC").unwrap();
        assert_eq!(score_tiles(&e, &e, &e, &s(), 16), 0);
        for (x, y, z) in [(&a, &e, &e), (&e, &a, &e), (&e, &e, &a), (&a, &a, &e)] {
            assert_eq!(
                score_tiles(x, y, z, &s(), 4),
                score_slabs(x, y, z, &s()),
                "degenerate"
            );
        }
    }

    #[test]
    fn cancellable_without_cancel_matches_plain() {
        let (a, b, c) = family_triple(17, 20);
        let token = CancelToken::never();
        assert_eq!(
            score(&a, &b, &c, &s(), 8, &RunCtx::default().cancel(&token)).unwrap(),
            score_tiles(&a, &b, &c, &s(), 8)
        );
    }

    #[test]
    fn pre_cancelled_stops_immediately() {
        let (a, b, c) = random_triple(53, 12);
        let token = CancelToken::never();
        token.cancel();
        let ctx = RunCtx::default().cancel(&token);
        let Err(AlignError::Cancelled(p)) = score(&a, &b, &c, &s(), 8, &ctx) else {
            panic!("a fired token must stop the sweep");
        };
        assert_eq!(p.cells_done, 0);
        assert_eq!(
            p.cells_total,
            ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64
        );
    }

    #[test]
    fn zero_tile_is_clamped_not_panicking() {
        let (a, b, c) = random_triple(54, 6);
        assert_eq!(
            score_tiles(&a, &b, &c, &s(), 0),
            score_slabs(&a, &b, &c, &s())
        );
    }
}
