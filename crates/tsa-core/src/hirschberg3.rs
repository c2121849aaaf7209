//! 3D Hirschberg divide and conquer: a **full optimal alignment in
//! quadratic space**.
//!
//! Split `A` at its midpoint `m`. Any optimal alignment path crosses the
//! lattice face `i = m` at exactly one cell `(m, j, k)`, and that cell is
//! an argmax of `F[j][k] + R[j][k]`, where `F` is the forward face of
//! `(A[..m], B, C)` and `R` the backward face of `(A[m..], B, C)` — both
//! computable in quadratic space ([`crate::score_only`]). Recurse on the
//! two sub-problems; the half-volumes sum geometrically, so total work is
//! at most ~2× the plain DP (experiment `table4` measures the real ratio).
//!
//! The parallel variant additionally (a) computes the two faces with
//! plane-parallel sweeps and (b) runs the two recursive halves as a
//! `rayon::join`, so parallelism is available at every level. Both run
//! the one recursion of [`solve`].

use crate::aligner::AlignError;
use crate::alignment::{Alignment3, Column3};
use crate::cancel::CancelProgress;
use crate::checkpoint::KernelKind;
use crate::dp::NEG_INF;
use crate::full;
use crate::run::{RunCtx, UNSTOPPABLE};
use crate::score_only::{backward_face, forward_face};
use std::sync::atomic::{AtomicU64, Ordering};
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Below this `|A|` the recursion bottoms out into the full-lattice DP:
/// the sub-lattice is at most `(BASE+1)·(n2+1)·(n3+1)` cells, i.e. already
/// quadratic in the remaining problem.
const BASE_CASE_LEN: usize = 4;

/// Optimal alignment, sequential divide and conquer, quadratic space.
///
/// ```
/// use tsa_core::{full, hirschberg3};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let s = Scoring::dna_default();
/// let a = Seq::dna("GATTACA").unwrap();
/// let b = Seq::dna("GATACA").unwrap();
/// let c = Seq::dna("GTTACA").unwrap();
/// let dc = hirschberg3::align(&a, &b, &c, &s);
/// assert_eq!(dc.score, full::align_score(&a, &b, &c, &s));
/// ```
pub fn align(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Alignment3 {
    solve(a, b, c, scoring, false, &RunCtx::default()).expect(UNSTOPPABLE)
}

/// Optimal alignment, parallel divide and conquer (parallel faces +
/// parallel recursion), quadratic space.
pub fn align_parallel(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> Alignment3 {
    solve(a, b, c, scoring, true, &RunCtx::default()).expect(UNSTOPPABLE)
}

/// Optimal alignment by divide and conquer in quadratic space: slab faces
/// and a sequential recursion, or — when `parallel` — plane-parallel faces
/// and a `rayon::join` over the two halves. The faces run `ctx`'s SIMD
/// kernel; its token is polled at every recursion node and once per slab
/// or plane inside each face sweep.
pub fn solve(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    parallel: bool,
    ctx: &RunCtx<'_>,
) -> Result<Alignment3, AlignError> {
    let done = AtomicU64::new(0);
    let mut columns = Vec::with_capacity(a.len() + b.len() + c.len());
    match recurse(a, b, c, scoring, parallel, ctx, &done, &mut columns) {
        Ok(()) => {
            let mut aln = Alignment3::new(columns, 0);
            aln.score = aln.rescore(scoring);
            Ok(aln)
        }
        // Total work is input-dependent; ~2× the cube is the worst case
        // (the halved sub-problems sum geometrically).
        Err(()) => Err(AlignError::Cancelled(CancelProgress {
            cells_done: done.load(Ordering::Relaxed),
            cells_total: 2 * cube(a, b, c),
        })),
    }
}

fn cube(a: &Seq, b: &Seq, c: &Seq) -> u64 {
    ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64
}

/// The one recursion behind [`solve`]. Credits finished (and partially
/// finished) face sweeps to `done`; `Err(())` means the token fired.
#[allow(clippy::too_many_arguments)]
fn recurse(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    parallel: bool,
    ctx: &RunCtx<'_>,
    done: &AtomicU64,
    out: &mut Vec<Column3>,
) -> Result<(), ()> {
    if ctx.should_stop() {
        return Err(());
    }
    if a.len() <= BASE_CASE_LEN {
        out.extend(full::align(a, b, c, scoring).columns);
        done.fetch_add(cube(a, b, c), Ordering::Relaxed);
        return Ok(());
    }
    let mid = a.len() / 2;
    let a_lo = a.slice(0, mid);
    let a_hi = a.slice(mid, a.len());
    let kind = if parallel {
        KernelKind::Planes
    } else {
        KernelKind::Slabs
    };
    let forward = || forward_face(&a_lo, b, c, scoring, kind, ctx);
    let backward = || backward_face(&a_hi, b, c, scoring, kind, ctx);
    let (fr, rr) = if parallel {
        rayon::join(forward, backward)
    } else {
        (forward(), backward())
    };
    // Account both halves before bailing: the sibling may have finished.
    let credit = |res: Result<Vec<i32>, AlignError>, full_cells: u64| match res {
        Ok(face) => {
            done.fetch_add(full_cells, Ordering::Relaxed);
            Some(face)
        }
        Err(e) => {
            if let AlignError::Cancelled(p) = e {
                done.fetch_add(p.cells_done, Ordering::Relaxed);
            }
            None
        }
    };
    let f = credit(fr, cube(&a_lo, b, c));
    let r = credit(rr, cube(&a_hi, b, c));
    let (Some(f), Some(r)) = (f, r) else {
        return Err(());
    };
    let w3 = c.len() + 1;
    let split = best_split(&f, &r);
    let (sj, sk) = (split / w3, split % w3);
    let (b_lo, b_hi) = (b.slice(0, sj), b.slice(sj, b.len()));
    let (c_lo, c_hi) = (c.slice(0, sk), c.slice(sk, c.len()));
    let left =
        |out: &mut Vec<Column3>| recurse(&a_lo, &b_lo, &c_lo, scoring, parallel, ctx, done, out);
    let right =
        |out: &mut Vec<Column3>| recurse(&a_hi, &b_hi, &c_hi, scoring, parallel, ctx, done, out);
    if parallel {
        let mut right_cols: Vec<Column3> = Vec::new();
        let (left_ok, right_ok) = rayon::join(|| left(out), || right(&mut right_cols));
        left_ok?;
        right_ok?;
        out.extend(right_cols);
        Ok(())
    } else {
        left(out)?;
        right(out)
    }
}

/// Pick the split column: argmax of `F + R`, ties broken toward the
/// lexicographically smallest `(j, k)` for determinism.
fn best_split(f: &[i32], r: &[i32]) -> usize {
    let mut best_idx = 0;
    let mut best = NEG_INF * 2;
    for (idx, (x, y)) in f.iter().zip(r).enumerate() {
        let v = x + y;
        if v > best {
            best = v;
            best_idx = idx;
        }
    }
    best_idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::test_util::{family_triple, random_triple};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    #[test]
    fn sequential_dc_matches_full_dp_on_randoms() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 14);
            let dc = align(&a, &b, &c, &s());
            let opt = full::align_score(&a, &b, &c, &s());
            assert_eq!(dc.score, opt, "seed {seed}");
            dc.validate_scored(&a, &b, &c, &s())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn parallel_dc_matches_full_dp_on_randoms() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed + 200, 14);
            let dc = align_parallel(&a, &b, &c, &s());
            let opt = full::align_score(&a, &b, &c, &s());
            assert_eq!(dc.score, opt, "seed {seed}");
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn family_workloads() {
        for seed in [1u64, 2, 3] {
            let (a, b, c) = family_triple(seed, 28);
            let dc = align(&a, &b, &c, &s());
            assert_eq!(dc.score, full::align_score(&a, &b, &c, &s()));
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
            let pdc = align_parallel(&a, &b, &c, &s());
            assert_eq!(pdc.score, dc.score);
            pdc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGTACGTAC").unwrap();
        for (x, y, z) in [
            (e.clone(), e.clone(), e.clone()),
            (a.clone(), e.clone(), e.clone()),
            (e.clone(), a.clone(), e.clone()),
            (e.clone(), e.clone(), a.clone()),
            (a.clone(), a.clone(), e.clone()),
        ] {
            let dc = align(&x, &y, &z, &s());
            assert_eq!(dc.score, full::align_score(&x, &y, &z, &s()));
            dc.validate_scored(&x, &y, &z, &s()).unwrap();
        }
    }

    #[test]
    fn base_case_boundary_lengths() {
        for la in 0..=(BASE_CASE_LEN * 2 + 1) {
            let (raw, b, c) = random_triple(900 + la as u64, 12);
            let a = raw.slice(0, la.min(raw.len()));
            let dc = align(&a, &b, &c, &s());
            assert_eq!(dc.score, full::align_score(&a, &b, &c, &s()), "la={la}");
            dc.validate_scored(&a, &b, &c, &s()).unwrap();
        }
    }

    #[test]
    fn protein_scoring() {
        let sc = Scoring::blosum62();
        let a = Seq::protein("MKWVTFISLLLLFSSAYS").unwrap();
        let b = Seq::protein("MKWVTFISLLFLFSSAYS").unwrap();
        let c = Seq::protein("MKWVTFSLLLLFSAYS").unwrap();
        let dc = align(&a, &b, &c, &sc);
        assert_eq!(dc.score, full::align_score(&a, &b, &c, &sc));
        dc.validate_scored(&a, &b, &c, &sc).unwrap();
    }

    #[test]
    fn cancellable_dc_without_cancel_matches_plain() {
        let (a, b, c) = family_triple(17, 20);
        let token = CancelToken::never();
        let ctx = RunCtx::default().cancel(&token);
        let dc = solve(&a, &b, &c, &s(), false, &ctx).unwrap();
        assert_eq!(dc, align(&a, &b, &c, &s()));
        assert_eq!(dc.score, full::align_score(&a, &b, &c, &s()));
        dc.validate_scored(&a, &b, &c, &s()).unwrap();
        let pdc = solve(&a, &b, &c, &s(), true, &ctx).unwrap();
        assert_eq!(pdc, align_parallel(&a, &b, &c, &s()));
    }

    #[test]
    fn pre_cancelled_dc_stops_with_progress() {
        let (a, b, c) = family_triple(18, 20);
        let token = CancelToken::never();
        token.cancel();
        let ctx = RunCtx::default().cancel(&token);
        for parallel in [false, true] {
            let Err(AlignError::Cancelled(p)) = solve(&a, &b, &c, &s(), parallel, &ctx) else {
                panic!("parallel={parallel}: a fired token must stop the recursion");
            };
            assert_eq!(p.cells_done, 0, "parallel={parallel}");
            assert!(p.cells_total > 0);
        }
    }

    #[test]
    fn best_split_prefers_first_maximum() {
        let f = vec![1, 5, 5, 2];
        let r = vec![0, 0, 0, 3];
        // sums: 1, 5, 5, 5 → first max at index 1.
        assert_eq!(best_split(&f, &r), 1);
    }
}
