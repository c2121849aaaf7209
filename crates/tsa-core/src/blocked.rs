//! Tiled (blocked) wavefront DP — the coarse-grained parallel variant
//! ("PAR-BLOCK").
//!
//! The lattice is partitioned into `t×t×t` tiles; tiles on a tile plane
//! `D = I + J + K` run in parallel, and each tile's kernel sweeps its cells
//! in lexicographic order — reads that cross a tile boundary hit
//! predecessor tiles, which the schedule guarantees are complete.
//!
//! Two schedulers are provided:
//!
//! * [`fill_barrier`] — a rayon barrier between tile planes (simple,
//!   bulk-synchronous);
//! * [`fill_dataflow`] — crossbeam counter-based dataflow: a tile starts
//!   the moment its ≤ 7 predecessors finish, letting different tile planes
//!   overlap. This is the ablation of "how much do the barriers cost?"
//!   (experiment `fig3`).
//!
//! Both produce lattices bit-identical to the sequential fill.

use crate::alignment::Alignment3;
use crate::dp::{Kernel, NEG_INF};
use crate::full::{traceback, Lattice};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::dataflow::run_dataflow;
use tsa_wavefront::executor::run_tiles_wavefront;
use tsa_wavefront::plane::Extents;
use tsa_wavefront::{SharedGrid, TileGrid};

/// Default tile edge: 16³ = 4096 cells per tile keeps a tile's working set
/// (~3 predecessor faces + own cells) comfortably in L1/L2 while leaving
/// hundreds of concurrent tiles on mid planes of realistic lattices.
pub const DEFAULT_TILE: usize = 16;

/// Sweep one tile's cells in lexicographic order.
///
/// # Safety
/// Caller must guarantee all predecessor tiles of `(ti, tj, tk)` have been
/// fully written, and no other thread touches this tile's cells.
fn tile_kernel(
    kernel: &Kernel<'_>,
    e: Extents,
    grid: &SharedGrid<i32>,
    tg: &TileGrid,
    ti: usize,
    tj: usize,
    tk: usize,
) {
    let ((ilo, ihi), (jlo, jhi), (klo, khi)) = tg.cell_ranges(ti, tj, tk);
    for i in ilo..=ihi {
        for j in jlo..=jhi {
            for k in klo..=khi {
                let v = kernel.cell(i, j, k, |pi, pj, pk| unsafe {
                    grid.get(e.index(pi, pj, pk))
                });
                unsafe { grid.set(e.index(i, j, k), v) };
            }
        }
    }
}

/// Fill the full lattice with the barrier tile scheduler.
pub fn fill_barrier(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, tile: usize) -> Lattice {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let tg = TileGrid::new(e, tile);
    let grid: SharedGrid<i32> = SharedGrid::new(e.cells(), NEG_INF);
    let tile = |ti, tj, tk| tile_kernel(&kernel, e, &grid, &tg, ti, tj, tk);
    run_tiles_wavefront(&tg, tile, || false).expect("sweep without a stop poll");
    Lattice {
        scores: grid.into_vec(),
        extents: e,
    }
}

/// Fill the full lattice with the dataflow tile scheduler on `threads`
/// dedicated workers.
pub fn fill_dataflow(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    tile: usize,
    threads: usize,
) -> Lattice {
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let tg = TileGrid::new(e, tile);
    let grid: SharedGrid<i32> = SharedGrid::new(e.cells(), NEG_INF);
    run_dataflow(
        tg.num_tiles(),
        |idx| {
            let (ti, tj, tk) = tg.tile_coords(idx);
            tg.num_predecessors(ti, tj, tk)
        },
        |idx| {
            let (ti, tj, tk) = tg.tile_coords(idx);
            tg.successors(ti, tj, tk)
                .into_iter()
                .map(|(x, y, z)| tg.tile_index(x, y, z))
                .collect()
        },
        |idx| {
            let (ti, tj, tk) = tg.tile_coords(idx);
            tile_kernel(&kernel, e, &grid, &tg, ti, tj, tk);
        },
        threads,
    );
    Lattice {
        scores: grid.into_vec(),
        extents: e,
    }
}

/// Optimal alignment via the barrier tile scheduler.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, tile: usize) -> Alignment3 {
    let lat = fill_barrier(a, b, c, scoring, tile);
    traceback(&lat, a, b, c, scoring)
}

/// Optimal alignment via the dataflow tile scheduler.
pub fn align_dataflow(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    tile: usize,
    threads: usize,
) -> Alignment3 {
    let lat = fill_dataflow(a, b, c, scoring, tile, threads);
    traceback(&lat, a, b, c, scoring)
}

/// Barrier-scheduled optimal score.
pub fn align_score(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, tile: usize) -> i32 {
    fill_barrier(a, b, c, scoring, tile).final_score()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::run::RunCtx;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn barrier_lattice_is_bit_identical_to_sequential() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed, 14);
            let seq_lat = full::fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
            for tile in [1, 3, 4, 64] {
                let lat = fill_barrier(&a, &b, &c, &s(), tile);
                assert_eq!(seq_lat.scores, lat.scores, "seed {seed} tile {tile}");
            }
        }
    }

    #[test]
    fn dataflow_lattice_is_bit_identical_to_sequential() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 60, 14);
            let seq_lat = full::fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
            for (tile, threads) in [(4, 1), (4, 4), (8, 3)] {
                let lat = fill_dataflow(&a, &b, &c, &s(), tile, threads);
                assert_eq!(
                    seq_lat.scores, lat.scores,
                    "seed {seed} tile {tile} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn alignments_match_sequential_exactly() {
        let (a, b, c) = family_triple(42, 24);
        let seq = full::align(&a, &b, &c, &s());
        let bar = align(&a, &b, &c, &s(), 8);
        let df = align_dataflow(&a, &b, &c, &s(), 8, 4);
        assert_eq!(seq, bar);
        assert_eq!(seq, df);
        bar.validate_scored(&a, &b, &c, &s()).unwrap();
    }

    #[test]
    fn tile_of_one_is_the_cell_wavefront() {
        let (a, b, c) = random_triple(9, 10);
        assert_eq!(
            align_score(&a, &b, &c, &s(), 1),
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn oversized_tile_is_the_sequential_fill() {
        let (a, b, c) = random_triple(10, 10);
        assert_eq!(
            align_score(&a, &b, &c, &s(), 1024),
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACG").unwrap();
        assert_eq!(align_score(&e, &e, &e, &s(), 8), 0);
        assert_eq!(
            align_score(&a, &e, &e, &s(), 8),
            full::align_score(&a, &e, &e, &s())
        );
    }

    #[test]
    fn uneven_lengths_with_tile_boundaries() {
        // Lengths straddling tile boundaries (15, 16, 17 with tile 8).
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let a = tsa_seq::gen::random_seq(tsa_seq::Alphabet::Dna, 15, &mut rng);
        let b = tsa_seq::gen::random_seq(tsa_seq::Alphabet::Dna, 16, &mut rng);
        let c = tsa_seq::gen::random_seq(tsa_seq::Alphabet::Dna, 17, &mut rng);
        assert_eq!(
            align_score(&a, &b, &c, &s(), 8),
            full::align_score(&a, &b, &c, &s())
        );
    }
}
