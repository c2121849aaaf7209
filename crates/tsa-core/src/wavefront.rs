//! Plane-parallel wavefront DP — the paper's parallel algorithm ("PAR-WF").
//!
//! All cells of the anti-diagonal plane `d = i + j + k` are independent
//! given planes `d−1..d−3`, so each plane is a rayon parallel iteration and
//! the implicit join between planes is the only synchronization. The full
//! lattice is materialized (into a [`SharedGrid`]) so the standard
//! traceback recovers an optimal alignment afterwards; scores are
//! *bit-identical* to the sequential fill because the recurrence is a pure
//! max over the same inputs.

use crate::aligner::AlignError;
use crate::alignment::Alignment3;
use crate::cancel::CancelProgress;
use crate::dp::{Kernel, NEG_INF};
use crate::full::{traceback, Lattice};
use crate::run::{RunCtx, UNSTOPPABLE};
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::executor::{run_cells_wavefront, run_cells_wavefront_profiled};
use tsa_wavefront::plane::Extents;
use tsa_wavefront::{PlaneProfile, SharedGrid};

/// The lattice being filled and the kernel that fills it, shared by the
/// plain and the profiled executor.
struct LatticeFill<'a> {
    kernel: Kernel<'a>,
    e: Extents,
    grid: SharedGrid<i32>,
}

impl<'a> LatticeFill<'a> {
    fn new(a: &'a Seq, b: &'a Seq, c: &'a Seq, scoring: &'a Scoring) -> Self {
        let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
        let (n1, n2, n3) = kernel.lens();
        let e = Extents::new(n1, n2, n3);
        LatticeFill {
            kernel,
            e,
            grid: SharedGrid::new(e.cells(), NEG_INF),
        }
    }

    /// Compute cell `(i, j, k)`.
    ///
    /// SAFETY (of the executors' contract): each plane cell is written by
    /// exactly one call (plane cells are distinct lattice cells); all reads
    /// target cells on planes d−1..d−3, completed before this plane starts
    /// (the executor joins between planes and only stops *between* them).
    #[inline(always)]
    fn cell(&self, i: usize, j: usize, k: usize) {
        let (e, grid) = (self.e, &self.grid);
        let v = self.kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            grid.get(e.index(pi, pj, pk))
        });
        unsafe { grid.set(e.index(i, j, k), v) };
    }

    fn into_lattice(self) -> Lattice {
        Lattice {
            scores: self.grid.into_vec(),
            extents: self.e,
        }
    }
}

/// Fill the full lattice with plane-parallel execution, polling `ctx`'s
/// token between anti-diagonal planes; a fired token aborts the sweep
/// within one plane and reports progress.
pub fn fill(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    ctx: &RunCtx<'_>,
) -> Result<Lattice, AlignError> {
    let lf = LatticeFill::new(a, b, c, scoring);
    let cells_total = lf.e.cells() as u64;
    run_cells_wavefront(lf.e, |i, j, k| lf.cell(i, j, k), || ctx.should_stop()).map_err(
        |cells_done| {
            AlignError::Cancelled(CancelProgress {
                cells_done,
                cells_total,
            })
        },
    )?;
    Ok(lf.into_lattice())
}

/// Optimal alignment via the profiled parallel fill; returns the
/// alignment plus the per-plane timing profile. The scores are identical
/// to [`fill`]'s — only the executor's intra-plane task split differs
/// (explicit per-worker chunks, so each task can be timed), which the
/// plane-disjointness contract makes observationally irrelevant.
pub fn align_profiled(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> (Alignment3, PlaneProfile) {
    let lf = LatticeFill::new(a, b, c, scoring);
    let profile = run_cells_wavefront_profiled(lf.e, |i, j, k| lf.cell(i, j, k));
    (traceback(&lf.into_lattice(), a, b, c, scoring), profile)
}

/// Optimal three-sequence alignment via the parallel wavefront fill.
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Alignment3 {
    let lat = fill(a, b, c, scoring, &RunCtx::default()).expect(UNSTOPPABLE);
    traceback(&lat, a, b, c, scoring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn lattice_is_bit_identical_to_sequential() {
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed, 14);
            let seq_lat = full::fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
            let par_lat = fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
            assert_eq!(seq_lat.scores, par_lat.scores, "seed {seed}");
        }
    }

    #[test]
    fn alignments_match_sequential_exactly() {
        for seed in 0..8 {
            let (a, b, c) = random_triple(seed + 30, 14);
            let par = align(&a, &b, &c, &s());
            let seq = full::align(&a, &b, &c, &s());
            assert_eq!(par, seq, "seed {seed}");
            par.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn family_workload_matches() {
        let (a, b, c) = family_triple(99, 32);
        assert_eq!(
            align(&a, &b, &c, &s()).score,
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGT").unwrap();
        assert_eq!(align(&e, &e, &e, &s()).score, 0);
        assert_eq!(
            align(&a, &e, &e, &s()).score,
            full::align_score(&a, &e, &e, &s())
        );
        assert_eq!(
            align(&a, &a, &e, &s()).score,
            full::align_score(&a, &a, &e, &s())
        );
    }

    #[test]
    fn large_enough_to_parallelize_matches() {
        // Middle planes of a 40³ lattice have ~hundreds of cells, beyond
        // the executor's sequential threshold.
        let (a, b, c) = family_triple(5, 40);
        assert_eq!(
            align(&a, &b, &c, &s()).score,
            full::align_score(&a, &b, &c, &s())
        );
    }

    #[test]
    fn profiled_align_is_identical_and_accounts_for_all_cells() {
        let (a, b, c) = family_triple(7, 24);
        let (al, profile) = align_profiled(&a, &b, &c, &s());
        assert_eq!(al, full::align(&a, &b, &c, &s()));
        let e = Extents::new(a.len(), b.len(), c.len());
        assert_eq!(profile.total_items(), e.cells() as u64);
        assert_eq!(profile.samples.len(), e.num_planes());
    }

    #[test]
    fn fill_with_unfired_token_is_bit_identical() {
        let (a, b, c) = random_triple(4, 14);
        let token = crate::CancelToken::never();
        let lat = fill(&a, &b, &c, &s(), &RunCtx::default().cancel(&token)).unwrap();
        let plain = full::fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
        assert_eq!(lat.scores, plain.scores);
    }

    #[test]
    fn pre_cancelled_fill_does_no_work() {
        let (a, b, c) = random_triple(6, 14);
        let token = crate::CancelToken::never();
        token.cancel();
        let ctx = RunCtx::default().cancel(&token);
        let Err(AlignError::Cancelled(p)) = fill(&a, &b, &c, &s(), &ctx) else {
            panic!("a fired token must stop the fill");
        };
        assert_eq!(p.cells_done, 0);
        assert!(p.cells_total > 0);
    }

    #[test]
    fn works_inside_small_thread_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        pool.install(|| {
            let (a, b, c) = family_triple(11, 24);
            let par = align(&a, &b, &c, &s());
            par.validate_scored(&a, &b, &c, &s()).unwrap();
            assert_eq!(par.score, full::align_score(&a, &b, &c, &s()));
        });
    }
}
