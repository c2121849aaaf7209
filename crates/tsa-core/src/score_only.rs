//! Quadratic-space score computation.
//!
//! The full lattice is only needed for traceback. For the score (and for
//! the divide-and-conquer aligner's *faces*) it suffices to keep:
//!
//! * **slab rolling** ([`KernelKind::Slabs`]) — two `i`-slabs of
//!   `(n2+1)(n3+1)` cells, swept sequentially. The final slab is exactly
//!   `D[n1][·][·]`, the forward face Hirschberg needs.
//! * **plane rolling** ([`KernelKind::Planes`]) — four anti-diagonal plane
//!   buffers with the cells of each plane computed in parallel. A cell's
//!   seven predecessors live on planes `d−1..d−3`, so four rotating
//!   buffers suffice.
//!
//! Both give `O(n²)` memory instead of `O(n³)`, the headline of the memory
//! experiment (`table3`).
//!
//! Each sweep is a single loop driven by a [`RunCtx`]; [`score`] (and the
//! faces the divide and conquer asks for) pick the sweep by [`KernelKind`].
//! The context's [`SimdKernel`] runs the rows — all kernels produce
//! **bit-identical** scores (the SIMD row kernels in [`crate::kernel`]
//! restate the same `i32` arithmetic), so the choice is purely a
//! throughput knob. Its token is polled once per slab or plane, and a
//! durable context makes [`score`] checkpoint the frontier.

use crate::aligner::AlignError;
use crate::cancel::CancelProgress;
use crate::checkpoint::{Checkpointer, KernelKind, ResumeError};
use crate::dp::{Kernel, NEG_INF};
use crate::kernel::{
    plane_row, slab_row, PlaneRow, PlaneScratch, Profiles, ResolvedKernel, SimdKernel, SlabRow,
};
use crate::kernel_i16::{
    fits_i16, narrow_row, plane_row_i16, I16Profiles, PlaneRowI16, PlaneShadows, RowSel, SlabI16,
};
use crate::run::{RunCtx, UNSTOPPABLE};
use rayon::prelude::*;
use tsa_scoring::Scoring;
use tsa_seq::Seq;
use tsa_wavefront::plane::{plane_cells, plane_rows, Extents};
use tsa_wavefront::SharedGrid;

/// A face of the lattice at fixed `i`: scores indexed by `(j, k)` as
/// `j * (n3 + 1) + k`.
pub type Face = Vec<i32>;

/// The optimal score by the `kind` rolling sweep: `O(n³)` time, `O(n²)`
/// memory. A durable `ctx` checkpoints the sweep's frontier and may
/// resume a snapshot of the same job and kind; the score is bit-identical
/// to an uninterrupted run under any kernel.
pub fn score(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kind: KernelKind,
    ctx: &RunCtx<'_>,
) -> Result<i32, AlignError> {
    match kind {
        KernelKind::Slabs => Ok(*slab_sweep(a, b, c, scoring, ctx)?
            .last()
            .expect("face non-empty")),
        KernelKind::Planes => Ok(plane_sweep(a, b, c, scoring, false, ctx)?.0),
    }
}

/// The forward face `D[|a|][j][k]` for all `(j, k)`: the optimal score of
/// aligning **all of `a`** against the prefixes `b[..j]`, `c[..k]`. Faces
/// are never checkpointed; a durable `ctx` runs as a plain one.
pub(crate) fn forward_face(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kind: KernelKind,
    ctx: &RunCtx<'_>,
) -> Result<Face, AlignError> {
    let ctx = ctx.transient();
    match kind {
        KernelKind::Slabs => slab_sweep(a, b, c, scoring, &ctx),
        KernelKind::Planes => Ok(plane_sweep(a, b, c, scoring, true, &ctx)?
            .1
            .expect("face requested")),
    }
}

/// The backward face: `out[j * (n3+1) + k]` is the optimal score of
/// aligning **all of `a`** against the suffixes `b[j..]`, `c[k..]`.
pub(crate) fn backward_face(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    kind: KernelKind,
    ctx: &RunCtx<'_>,
) -> Result<Face, AlignError> {
    let (ar, br, cr) = (a.reversed(), b.reversed(), c.reversed());
    let rev = forward_face(&ar, &br, &cr, scoring, kind, ctx)?;
    Ok(reindex_backward(rev, b.len(), c.len()))
}

/// [`score`] by the slab sweep under `simd`.
pub fn score_slabs_with(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring, simd: SimdKernel) -> i32 {
    score(
        a,
        b,
        c,
        scoring,
        KernelKind::Slabs,
        &RunCtx::default().kernel(simd),
    )
    .expect(UNSTOPPABLE)
}

/// [`score`] by the plane sweep under the `auto` kernel.
pub fn score_planes_parallel(a: &Seq, b: &Seq, c: &Seq, scoring: &Scoring) -> i32 {
    score_planes_parallel_with(a, b, c, scoring, SimdKernel::Auto)
}

/// [`score`] by the plane sweep under `simd`.
pub fn score_planes_parallel_with(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    simd: SimdKernel,
) -> i32 {
    score(
        a,
        b,
        c,
        scoring,
        KernelKind::Planes,
        &RunCtx::default().kernel(simd),
    )
    .expect(UNSTOPPABLE)
}

/// The slab-rolling sweep; returns the final slab (the forward face).
///
/// At each slab boundary it polls, in order: the cancel token, the drain
/// flag (store a final snapshot, stop with [`AlignError::Drained`]), and
/// the checkpoint pacer (store a snapshot, keep going). A snapshot stores
/// the one completed slab the next slab needs, so resuming continues the
/// identical arithmetic.
fn slab_sweep(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    ctx: &RunCtx<'_>,
) -> Result<Face, AlignError> {
    let rk = ctx.kernel.resolve();
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let w3 = n3 + 1;
    let slab_len = (n2 + 1) * w3;
    let prof = slab_profiles(a, b, c, scoring, rk);
    let prof16 = i16_profiles(a, b, c, scoring, rk);
    let mut slab16 = prof16.as_ref().map(|_| SlabI16::new(w3));
    let cells_total = ((n1 + 1) * slab_len) as u64;

    let mut ck = Checkpointer::new(ctx, a, b, c, scoring, KernelKind::Slabs);
    let resume = ck.as_ref().map(Checkpointer::resume).transpose()?.flatten();
    let (start, mut prev, mut cells_done) = match resume {
        None => (0usize, vec![NEG_INF; slab_len], 0u64),
        Some(s) => {
            let next = s.next_index as usize;
            if next > n1 {
                return Err(AlignError::InvalidResume(ResumeError::Index));
            }
            if s.buffers.len() != 1 || s.buffers[0].len() != slab_len {
                return Err(AlignError::InvalidResume(ResumeError::Shape));
            }
            (next, s.buffers[0].clone(), s.cells_done)
        }
    };
    let mut cur = vec![NEG_INF; slab_len];
    for i in start..=n1 {
        let progress = CancelProgress {
            cells_done,
            cells_total,
        };
        ctx.poll(progress)?;
        if let Some(ck) = &ck {
            ck.drain(i, progress, || vec![prev.clone()])?;
        }
        compute_slab(
            &kernel,
            a,
            b,
            c,
            scoring,
            i,
            &prev,
            &mut cur,
            rk,
            prof.as_ref(),
            prof16.as_ref(),
            &mut slab16,
        );
        cells_done += slab_len as u64;
        if i < n1 {
            std::mem::swap(&mut prev, &mut cur);
            if let Some(ck) = &mut ck {
                ck.tick(i + 1, cells_done, || vec![prev.clone()])?;
            }
        }
    }
    Ok(cur)
}

/// Substitution profiles for the slab sweep — only built when a SIMD
/// kernel will consume them.
fn slab_profiles(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    rk: ResolvedKernel,
) -> Option<Profiles> {
    (!rk.is_scalar()).then(|| Profiles::new(scoring, a.residues(), b.residues(), c.residues()))
}

/// Narrowed `i16` profiles — only for an `i16` kernel, and only when the
/// scoring passes the narrow-range gate. `None` keeps the `i32` kernels
/// (an `i16` [`ResolvedKernel`] then dispatches to its widened sibling).
fn i16_profiles(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    rk: ResolvedKernel,
) -> Option<I16Profiles> {
    rk.is_i16()
        .then(|| I16Profiles::new(scoring, a.residues(), b.residues(), c.residues()))
        .flatten()
}

/// Compute slab `i` into `cur`, reading slab `i−1` from `prev`. Every cell
/// of `cur` is overwritten; its previous contents are never read, so a
/// stale (or freshly restored) `cur` buffer is fine.
///
/// `rk` selects the inner row kernel; the scalar arm below is the
/// reference the SIMD rows are property-tested against, and `prof` is only
/// consulted (and only `Some`) on the SIMD arms. `prof16`/`slab16` arm the
/// saturating `i16` row path (they are `Some` together); its per-row
/// fallback keeps the output bit-identical either way.
#[allow(clippy::too_many_arguments)]
fn compute_slab(
    kernel: &Kernel<'_>,
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    i: usize,
    prev: &[i32],
    cur: &mut [i32],
    rk: ResolvedKernel,
    prof: Option<&Profiles>,
    prof16: Option<&I16Profiles>,
    slab16: &mut Option<SlabI16>,
) {
    if let Some(s16) = slab16.as_mut() {
        s16.begin_slab();
    }
    let (_n1, n2, n3) = kernel.lens();
    let (ra, rb, rc) = (a.residues(), b.residues(), c.residues());
    let g2 = 2 * scoring.gap_linear();
    let w3 = n3 + 1;
    for j in 0..=n2 {
        if i == 0 || j == 0 {
            // Faces: generic bounds-checked kernel.
            for k in 0..=n3 {
                cur[j * w3 + k] = kernel.cell(i, j, k, |pi, pj, pk| {
                    if pi == i {
                        cur[pj * w3 + pk]
                    } else {
                        prev[pj * w3 + pk]
                    }
                });
            }
            continue;
        }
        // Interior rows: hoisted strides, same shape as full::fill.
        let (ai, bj) = (ra[i - 1], rb[j - 1]);
        let sab = scoring.sub(ai, bj);
        let b11 = (j - 1) * w3; // prev slab, row j−1
        let b10 = j * w3; // prev slab, row j
        let b01 = (j - 1) * w3; // cur slab, row j−1
        let base = j * w3;
        cur[base] = kernel.cell(i, j, 0, |pi, pj, pk| {
            if pi == i {
                cur[pj * w3 + pk]
            } else {
                prev[pj * w3 + pk]
            }
        });
        match prof {
            Some(prof) if !rk.is_scalar() => {
                // SIMD row: the split at `base` makes the completed row
                // `j−1` and the row being written disjoint borrows.
                let (done, open) = cur.split_at_mut(base);
                let row = SlabRow {
                    g2,
                    sab,
                    sac: &prof.ac(ai)[..n3],
                    sbc: &prof.bc(bj)[..n3],
                    prev_j1: &prev[b11..b11 + w3],
                    prev_j: &prev[b10..b10 + w3],
                    cur_j1: &done[b01..b01 + w3],
                };
                match (prof16, slab16.as_mut()) {
                    (Some(p16), Some(s16)) => {
                        let sel = RowSel {
                            prof: p16,
                            ai,
                            bj,
                            k_off: 0,
                        };
                        s16.row(rk, &sel, &row, &mut open[..w3]);
                    }
                    _ => slab_row(rk, &row, &mut open[..w3]),
                }
            }
            _ => {
                for k in 1..=n3 {
                    let ck = rc[k - 1];
                    let sac = scoring.sub(ai, ck);
                    let sbc = scoring.sub(bj, ck);
                    let p111 = prev[b11 + k - 1] + sab + sac + sbc;
                    let p110 = prev[b11 + k] + sab + g2;
                    let p101 = prev[b10 + k - 1] + sac + g2;
                    let p011 = cur[b01 + k - 1] + sbc + g2;
                    let single = prev[b10 + k].max(cur[b01 + k]).max(cur[base + k - 1]) + g2;
                    cur[base + k] = p111.max(p110).max(p101).max(p011).max(single);
                }
            }
        }
    }
}

/// Convert a face computed on reversed sequences into suffix indexing.
fn reindex_backward(rev: Face, n2: usize, n3: usize) -> Face {
    let w3 = n3 + 1;
    let mut out = vec![NEG_INF; (n2 + 1) * w3];
    for j in 0..=n2 {
        for k in 0..=n3 {
            out[j * w3 + k] = rev[(n2 - j) * w3 + (n3 - k)];
        }
    }
    out
}

/// Cells per rayon task within a plane.
const MIN_CELLS_PER_TASK: usize = 64;

/// The plane-rolling sweep; returns the score and, when `want_face`, the
/// forward face (collected as its cells are computed). Polls like
/// [`slab_sweep`], once per anti-diagonal plane. A snapshot stores the
/// last `min(d, 3)` completed planes — everything the recurrence can
/// still reach — so a resumed sweep reproduces the uninterrupted score
/// bit for bit.
fn plane_sweep(
    a: &Seq,
    b: &Seq,
    c: &Seq,
    scoring: &Scoring,
    want_face: bool,
    ctx: &RunCtx<'_>,
) -> Result<(i32, Option<Face>), AlignError> {
    let rk = ctx.kernel.resolve();
    let kernel = Kernel::new(a.residues(), b.residues(), c.residues(), scoring);
    let (n1, n2, n3) = kernel.lens();
    let e = Extents::new(n1, n2, n3);
    let w2 = n2 + 1;
    let plane_len = (n1 + 1) * w2;
    let prof = slab_profiles(a, b, c, scoring, rk);
    let prof16 = i16_profiles(a, b, c, scoring, rk);
    // Shadows start invalid; a resumed sweep (which restores only the
    // `i32` buffers) re-arms them within three cleanly narrowed planes.
    let shadows = prof16.as_ref().map(|_| PlaneShadows::new(plane_len));

    // Four rotating plane buffers indexed by (i, j); the k of a stored
    // value is implied by its plane: k = d − i − j.
    let mut buffers: [SharedGrid<i32>; 4] =
        std::array::from_fn(|_| SharedGrid::new(plane_len, NEG_INF));
    // Face at i = n1, filled as its cells are computed (only if wanted).
    let face: Option<SharedGrid<i32>> = want_face.then(|| SharedGrid::new(w2 * (n3 + 1), NEG_INF));

    let mut ck = Checkpointer::new(ctx, a, b, c, scoring, KernelKind::Planes);
    let resume = ck.as_ref().map(Checkpointer::resume).transpose()?.flatten();
    let (start, mut cells_done) = match resume {
        None => (0usize, 0u64),
        Some(s) => {
            let next = s.next_index as usize;
            if next >= e.num_planes() {
                return Err(AlignError::InvalidResume(ResumeError::Index));
            }
            let expect = next.min(3);
            if s.buffers.len() != expect || s.buffers.iter().any(|b| b.len() != plane_len) {
                return Err(AlignError::InvalidResume(ResumeError::Shape));
            }
            // Restore plane p into its rotation slot p % 4; untouched
            // slots keep the NEG_INF initialization, exactly as at plane
            // `next` of a fresh run.
            for (idx, buf) in s.buffers.iter().enumerate() {
                let p = next - expect + idx;
                let target = &buffers[p % 4];
                for (si, &v) in buf.iter().enumerate() {
                    // SAFETY: exclusive access — no worker threads yet.
                    unsafe { target.set(si, v) };
                }
            }
            (next, s.cells_done)
        }
    };

    let mut cells: Vec<(usize, usize, usize)> = Vec::with_capacity(e.max_plane_len());
    for d in start..e.num_planes() {
        let progress = CancelProgress {
            cells_done,
            cells_total: e.cells() as u64,
        };
        ctx.poll(progress)?;
        if let Some(ck) = &ck {
            ck.drain(d, progress, || plane_frontier(&mut buffers, d))?;
        }
        // The context only borrows; rebuilt per plane so the snapshots
        // above/below can borrow the buffers mutably.
        let pctx = PlaneCtx {
            kernel: &kernel,
            buffers: &buffers,
            n1,
            n3,
            w2,
            rk,
            prof: prof.as_ref(),
            prof16: prof16.as_ref(),
            shadows: shadows.as_ref(),
            scoring,
            ra: a.residues(),
            rb: b.residues(),
            rc: c.residues(),
        };
        if let Some(sh) = &shadows {
            sh.begin_plane(d);
        }
        cells_done += compute_plane(&pctx, face.as_ref(), &mut cells, e, d) as u64;
        if d + 1 < e.num_planes() {
            if let Some(ck) = &mut ck {
                ck.tick(d + 1, cells_done, || plane_frontier(&mut buffers, d + 1))?;
            }
        }
    }
    let final_plane = (n1 + n2 + n3) % 4;
    // SAFETY: the sweep has finished; exclusive access.
    let score = unsafe { buffers[final_plane].get(n1 * w2 + n2) };
    Ok((score, face.map(SharedGrid::into_vec)))
}

/// The `min(next, 3)` planes preceding `next`, oldest first.
fn plane_frontier(buffers: &mut [SharedGrid<i32>; 4], next: usize) -> Vec<Vec<i32>> {
    (next - next.min(3)..next)
        .map(|p| buffers[p % 4].snapshot())
        .collect()
}

/// Loop-invariant context of one plane-rolling sweep, shared by every
/// plane and worker.
struct PlaneCtx<'a> {
    kernel: &'a Kernel<'a>,
    buffers: &'a [SharedGrid<i32>; 4],
    n1: usize,
    n3: usize,
    w2: usize,
    rk: ResolvedKernel,
    prof: Option<&'a Profiles>,
    /// Narrowed profiles — `Some` only for an `i16` kernel whose scoring
    /// passed the range gate; always paired with `shadows`.
    prof16: Option<&'a I16Profiles>,
    /// The four `i16` shadow planes mirroring `buffers`.
    shadows: Option<&'a PlaneShadows>,
    scoring: &'a Scoring,
    ra: &'a [u8],
    rb: &'a [u8],
    rc: &'a [u8],
}

/// Compute one anti-diagonal plane `d` into the rotating buffers (and the
/// `i = n1` face, when one is being collected). Returns the number of
/// cells on the plane. `scratch` is plane-loop-reused scrap space for the
/// scalar path's cell list.
fn compute_plane(
    ctx: &PlaneCtx<'_>,
    face: Option<&SharedGrid<i32>>,
    scratch: &mut Vec<(usize, usize, usize)>,
    e: Extents,
    d: usize,
) -> usize {
    match ctx.prof {
        Some(prof) if !ctx.rk.is_scalar() => compute_plane_rows(ctx, prof, face, e, d),
        _ => {
            scratch.clear();
            scratch.extend(plane_cells(e, d));
            compute_plane_cells(ctx, face, scratch, d);
            scratch.len()
        }
    }
}

/// The scalar reference plane pass: one generic bounds-checked kernel
/// evaluation per cell.
fn compute_plane_cells(
    ctx: &PlaneCtx<'_>,
    face: Option<&SharedGrid<i32>>,
    cells: &[(usize, usize, usize)],
    d: usize,
) {
    let PlaneCtx {
        kernel,
        buffers,
        n1,
        n3,
        w2,
        ..
    } = *ctx;
    let slot = |i: usize, j: usize| i * w2 + j;
    let target = &buffers[d % 4];
    // SAFETY: each (i, j) slot of the target buffer corresponds to one
    // distinct plane cell; reads go to the three previous planes'
    // buffers, complete before this plane starts. The buffer being
    // overwritten (d ≡ d−4) is never read: predecessors reach back at
    // most 3 planes.
    let compute = |&(i, j, k): &(usize, usize, usize)| {
        let v = kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            buffers[(pi + pj + pk) % 4].get(slot(pi, pj))
        });
        unsafe { target.set(slot(i, j), v) };
        if i == n1 {
            if let Some(f) = face {
                unsafe { f.set(j * (n3 + 1) + k, v) };
            }
        }
    };
    if cells.len() < MIN_CELLS_PER_TASK {
        cells.iter().for_each(compute);
    } else {
        cells
            .par_iter()
            .with_min_len(MIN_CELLS_PER_TASK)
            .for_each(compute);
    }
}

/// The SIMD plane pass: whole `(i, j-run)` rows at a time. The interior
/// segment of each row reads all seven predecessors (and writes its
/// output) through unit-stride slices of the rotating buffers; edge cells
/// (`i`, `j`, or `k` of 0) fall back to the generic kernel. Scores are
/// bit-identical to [`compute_plane_cells`]. Returns the plane's cell
/// count.
fn compute_plane_rows(
    ctx: &PlaneCtx<'_>,
    prof: &Profiles,
    face: Option<&SharedGrid<i32>>,
    e: Extents,
    d: usize,
) -> usize {
    thread_local! {
        static SCRATCH: std::cell::RefCell<PlaneScratch> =
            std::cell::RefCell::new(PlaneScratch::default());
    }
    let rows: Vec<(usize, usize, usize)> = plane_rows(e, d).collect();
    let total: usize = rows.iter().map(|&(_, lo, hi)| hi - lo + 1).sum();
    let do_row = |&(i, j_lo, j_hi): &(usize, usize, usize)| {
        SCRATCH
            .with(|s| plane_row_segmented(ctx, prof, face, d, i, j_lo, j_hi, &mut s.borrow_mut()));
    };
    if total < MIN_CELLS_PER_TASK {
        rows.iter().for_each(do_row);
    } else {
        rows.par_iter().for_each(do_row);
    }
    total
}

/// One plane row `(i, j_lo..=j_hi)`: generic edge cells around a
/// vectorized interior segment.
#[allow(clippy::too_many_arguments)]
fn plane_row_segmented(
    ctx: &PlaneCtx<'_>,
    prof: &Profiles,
    face: Option<&SharedGrid<i32>>,
    d: usize,
    i: usize,
    j_lo: usize,
    j_hi: usize,
    scratch: &mut PlaneScratch,
) {
    let PlaneCtx {
        kernel,
        buffers,
        n1,
        n3,
        w2,
        rk,
        scoring,
        ra,
        rb,
        rc,
        ..
    } = *ctx;
    let slot = |i: usize, j: usize| i * w2 + j;
    let target = &buffers[d % 4];
    let shadows = ctx.shadows;
    // SAFETY: as in `compute_plane_cells` — writes land in this row's own
    // target slots, reads come from the three previous planes' buffers.
    // Shadow writes mirror target writes slot for slot.
    let cell = |i: usize, j: usize, k: usize| {
        let v = kernel.cell(i, j, k, |pi, pj, pk| unsafe {
            buffers[(pi + pj + pk) % 4].get(slot(pi, pj))
        });
        unsafe { target.set(slot(i, j), v) };
        if let Some(sh) = shadows {
            let nv = v.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
            unsafe { sh.buf(d).set(slot(i, j), nv) };
            sh.record(d, fits_i16(v));
        }
        if i == n1 {
            if let Some(f) = face {
                unsafe { f.set(j * (n3 + 1) + k, v) };
            }
        }
    };
    // Interior cells need i ≥ 1 and j, k ≥ 1; with k = d − i − j that is
    // j ∈ [max(j_lo, 1), min(j_hi, d − i − 1)].
    let seg = if i >= 1 && d > i {
        let js = j_lo.max(1);
        let je = j_hi.min(d - i - 1);
        (js <= je).then_some((js, je))
    } else {
        None
    };
    let Some((js, je)) = seg else {
        for j in j_lo..=j_hi {
            cell(i, j, d - i - j);
        }
        return;
    };
    for j in j_lo..js {
        cell(i, j, d - i - j);
    }
    let len = je - js + 1;
    let g2 = 2 * scoring.gap_linear();
    let ai = ra[i - 1];
    // The narrow path runs when the `i16` machinery is armed and all three
    // predecessor shadow planes narrowed cleanly; otherwise the `i32`
    // kernel runs and (when shadows exist) its output is narrowed back so
    // validity recovers on the next plane.
    let narrow = match (ctx.prof16, shadows) {
        (Some(p16), Some(sh)) if sh.preds_valid(d) => Some((p16, sh)),
        _ => None,
    };
    // SAFETY: the predecessor slices view earlier planes' buffers (and
    // shadow buffers), fully written before this plane began and never
    // written during it; the output slices cover exactly this row's target
    // (and shadow) slots, disjoint from every other row of the plane.
    // Slice bounds stay inside the buffers: slots run from
    // (i−1)·w2 + js−1 to i·w2 + je ≤ (n1+1)·w2 − 1.
    unsafe {
        let out = std::slice::from_raw_parts_mut(target.as_ptr().add(slot(i, js)), len);
        if let Some((p16, sh)) = narrow {
            scratch.ensure_i16(len);
            let ng2 = p16.g2();
            let (pab, pac) = (p16.ab16(ai), p16.ac16(ai));
            for (x, j) in (js..=je).enumerate() {
                let k = d - i - j;
                let sab = pab[j - 1];
                let sac = pac[k - 1];
                let sbc = p16.bc16(rb[j - 1])[k - 1];
                scratch.s111[x] = sab + sac + sbc;
                scratch.s110[x] = sab + ng2;
                scratch.s101[x] = sac + ng2;
                scratch.s011[x] = sbc + ng2;
            }
            let sl = |g: &SharedGrid<i16>, at: usize| {
                std::slice::from_raw_parts(g.as_ptr().add(at), len)
            };
            let row = PlaneRowI16 {
                g2: ng2,
                t111: &scratch.s111[..len],
                t110: &scratch.s110[..len],
                t101: &scratch.s101[..len],
                t011: &scratch.s011[..len],
                p3_111: sl(sh.buf(d - 3), slot(i - 1, js - 1)),
                p2_110: sl(sh.buf(d - 2), slot(i - 1, js - 1)),
                p2_101: sl(sh.buf(d - 2), slot(i - 1, js)),
                p2_011: sl(sh.buf(d - 2), slot(i, js - 1)),
                p1_100: sl(sh.buf(d - 1), slot(i - 1, js)),
                p1_010: sl(sh.buf(d - 1), slot(i, js - 1)),
                p1_001: sl(sh.buf(d - 1), slot(i, js)),
            };
            let out16 = std::slice::from_raw_parts_mut(sh.buf(d).as_ptr().add(slot(i, js)), len);
            sh.record(d, plane_row_i16(rk, &row, out, out16));
        } else {
            scratch.ensure(len);
            let (pab, pac) = (prof.ab(ai), prof.ac(ai));
            for (x, j) in (js..=je).enumerate() {
                let k = d - i - j;
                let sab = pab[j - 1];
                let sac = pac[k - 1];
                let sbc = scoring.sub(rb[j - 1], rc[k - 1]);
                scratch.t111[x] = sab + sac + sbc;
                scratch.t110[x] = sab + g2;
                scratch.t101[x] = sac + g2;
                scratch.t011[x] = sbc + g2;
            }
            // Interior cells have d = i + j + k ≥ 3, so planes d−1..d−3
            // exist and occupy the three rotation slots the target
            // (d mod 4) doesn't.
            let p1 = &buffers[(d - 1) % 4];
            let p2 = &buffers[(d - 2) % 4];
            let p3 = &buffers[(d - 3) % 4];
            let sl = |g: &SharedGrid<i32>, at: usize| {
                std::slice::from_raw_parts(g.as_ptr().add(at), len)
            };
            let row = PlaneRow {
                g2,
                t111: &scratch.t111[..len],
                t110: &scratch.t110[..len],
                t101: &scratch.t101[..len],
                t011: &scratch.t011[..len],
                p3_111: sl(p3, slot(i - 1, js - 1)),
                p2_110: sl(p2, slot(i - 1, js - 1)),
                p2_101: sl(p2, slot(i - 1, js)),
                p2_011: sl(p2, slot(i, js - 1)),
                p1_100: sl(p1, slot(i - 1, js)),
                p1_010: sl(p1, slot(i, js - 1)),
                p1_001: sl(p1, slot(i, js)),
            };
            plane_row(rk, &row, out);
            if let Some(sh) = shadows {
                let out16 =
                    std::slice::from_raw_parts_mut(sh.buf(d).as_ptr().add(slot(i, js)), len);
                sh.record(d, narrow_row(rk, out, out16));
            }
        }
    }
    if i == n1 {
        if let Some(f) = face {
            for j in js..=je {
                // SAFETY: reading back this row's own completed cells.
                unsafe { f.set(j * (n3 + 1) + (d - i - j), target.get(slot(i, j))) };
            }
        }
    }
    for j in (je + 1)..=j_hi {
        cell(i, j, d - i - j);
    }
}

/// Bytes of working memory the slab-rolling score pass needs (reported by
/// the memory experiment).
pub fn slab_memory_bytes(n2: usize, n3: usize) -> usize {
    2 * (n2 + 1) * (n3 + 1) * std::mem::size_of::<i32>()
}

/// Bytes of working memory the plane-rolling parallel score pass needs.
pub fn plane_memory_bytes(n1: usize, n2: usize) -> usize {
    4 * (n1 + 1) * (n2 + 1) * std::mem::size_of::<i32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::checkpoint::{job_fingerprint, CheckpointConfig, FrontierSnapshot};
    use crate::full;
    use crate::test_util::{family_triple, random_triple};
    use KernelKind::{Planes, Slabs};

    fn s() -> Scoring {
        Scoring::dna_default()
    }

    fn plain(a: &Seq, b: &Seq, c: &Seq, kind: KernelKind) -> i32 {
        score(a, b, c, &s(), kind, &RunCtx::default()).unwrap()
    }

    fn fwd(a: &Seq, b: &Seq, c: &Seq, kind: KernelKind) -> Face {
        forward_face(a, b, c, &s(), kind, &RunCtx::default()).unwrap()
    }

    fn bwd(a: &Seq, b: &Seq, c: &Seq, kind: KernelKind) -> Face {
        backward_face(a, b, c, &s(), kind, &RunCtx::default()).unwrap()
    }

    #[test]
    fn slab_score_matches_full_lattice() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed, 12);
            assert_eq!(
                plain(&a, &b, &c, Slabs),
                full::align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_plane_score_matches_full_lattice() {
        for seed in 0..15 {
            let (a, b, c) = random_triple(seed + 40, 12);
            assert_eq!(
                plain(&a, &b, &c, Planes),
                full::align_score(&a, &b, &c, &s()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn forward_face_matches_lattice_slice() {
        let (a, b, c) = random_triple(7, 10);
        let lat = full::fill(&a, &b, &c, &s(), &RunCtx::default()).unwrap();
        let face = fwd(&a, &b, &c, Slabs);
        let w3 = c.len() + 1;
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                assert_eq!(face[j * w3 + k], lat.at(a.len(), j, k), "({j},{k})");
            }
        }
    }

    #[test]
    fn parallel_face_equals_sequential_face() {
        for seed in 0..10 {
            let (a, b, c) = random_triple(seed + 80, 14);
            assert_eq!(
                fwd(&a, &b, &c, Planes),
                fwd(&a, &b, &c, Slabs),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn backward_face_matches_suffix_alignments() {
        let (a, b, c) = random_triple(3, 8);
        let face = bwd(&a, &b, &c, Slabs);
        let w3 = c.len() + 1;
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                let bs = b.slice(j, b.len());
                let cs = c.slice(k, c.len());
                assert_eq!(
                    face[j * w3 + k],
                    full::align_score(&a, &bs, &cs, &s()),
                    "({j},{k})"
                );
            }
        }
    }

    #[test]
    fn parallel_backward_face_equals_sequential() {
        let (a, b, c) = family_triple(21, 18);
        assert_eq!(bwd(&a, &b, &c, Planes), bwd(&a, &b, &c, Slabs));
    }

    #[test]
    fn hirschberg_split_identity_holds_in_3d() {
        // max_{j,k} F[j][k] + R[j][k] over the split i = mid equals the
        // full optimum — the 3D divide-and-conquer invariant.
        let (a, b, c) = family_triple(31, 16);
        let full_score = full::align_score(&a, &b, &c, &s());
        let mid = a.len() / 2;
        let a_lo = a.slice(0, mid);
        let a_hi = a.slice(mid, a.len());
        let f = fwd(&a_lo, &b, &c, Slabs);
        let r = bwd(&a_hi, &b, &c, Slabs);
        let combined = f.iter().zip(&r).map(|(x, y)| x + y).max().unwrap();
        assert_eq!(combined, full_score);
    }

    #[test]
    fn empty_inputs() {
        let e = Seq::dna("").unwrap();
        let a = Seq::dna("ACGT").unwrap();
        assert_eq!(plain(&e, &e, &e, Slabs), 0);
        assert_eq!(plain(&e, &e, &e, Planes), 0);
        assert_eq!(
            plain(&a, &e, &e, Slabs),
            full::align_score(&a, &e, &e, &s())
        );
        assert_eq!(
            plain(&e, &a, &e, Planes),
            full::align_score(&e, &a, &e, &s())
        );
    }

    #[test]
    fn face_of_empty_a_is_pairwise_bc_lattice() {
        // With |a| = 0 the forward face is the 2D DP of B vs C (plus gap
        // charges against A).
        let e = Seq::dna("").unwrap();
        let (_, b, c) = random_triple(11, 8);
        let face = fwd(&e, &b, &c, Slabs);
        let lat = full::fill(&e, &b, &c, &s(), &RunCtx::default()).unwrap();
        let w3 = c.len() + 1;
        for j in 0..=b.len() {
            for k in 0..=c.len() {
                assert_eq!(face[j * w3 + k], lat.at(0, j, k));
            }
        }
    }

    #[test]
    fn cancellable_passes_without_cancel_match_plain() {
        let (a, b, c) = random_triple(51, 12);
        let token = CancelToken::never();
        let ctx = RunCtx::default().cancel(&token);
        for kind in [Slabs, Planes] {
            assert_eq!(
                score(&a, &b, &c, &s(), kind, &ctx).unwrap(),
                plain(&a, &b, &c, kind)
            );
            assert_eq!(
                forward_face(&a, &b, &c, &s(), kind, &ctx).unwrap(),
                fwd(&a, &b, &c, Slabs)
            );
            assert_eq!(
                backward_face(&a, &b, &c, &s(), kind, &ctx).unwrap(),
                bwd(&a, &b, &c, Slabs)
            );
        }
    }

    #[test]
    fn pre_cancelled_passes_stop_immediately() {
        let (a, b, c) = random_triple(52, 12);
        let token = CancelToken::never();
        token.cancel();
        let ctx = RunCtx::default().cancel(&token);
        for kind in [Slabs, Planes] {
            let Err(AlignError::Cancelled(p)) = score(&a, &b, &c, &s(), kind, &ctx) else {
                panic!("{kind:?} did not stop");
            };
            assert_eq!(p.cells_done, 0);
            assert_eq!(
                p.cells_total,
                ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as u64
            );
        }
    }

    mod durable {
        use super::*;
        use crate::checkpoint::{CheckpointPolicy, CheckpointSink, MemorySink};
        use std::sync::atomic::{AtomicBool, Ordering};

        /// The durable score of one sweep kind.
        fn durable(
            kind: KernelKind,
            a: &Seq,
            b: &Seq,
            c: &Seq,
            scoring: &Scoring,
            ckpt: &CheckpointConfig<'_>,
            resume: Option<&FrontierSnapshot>,
        ) -> Result<i32, AlignError> {
            score(
                a,
                b,
                c,
                scoring,
                kind,
                &RunCtx::default().durable(ckpt, resume),
            )
        }

        /// Forwards snapshots to an inner [`MemorySink`] and fires a drain
        /// flag after each store — the "interrupt at every checkpoint"
        /// harness.
        struct DrainOnStore<'a> {
            inner: &'a MemorySink,
            drain: &'a AtomicBool,
        }

        impl CheckpointSink for DrainOnStore<'_> {
            fn store(&self, s: &FrontierSnapshot) -> std::io::Result<()> {
                self.inner.store(s)?;
                self.drain.store(true, Ordering::Relaxed);
                Ok(())
            }
        }

        /// Run the `kind` sweep to completion, draining at every checkpoint and
        /// resuming from the stored snapshot (round-tripped through the
        /// binary wire format) until it finishes. Returns the score and
        /// the number of interruptions survived.
        fn run_interrupted(
            kind: KernelKind,
            a: &Seq,
            b: &Seq,
            c: &Seq,
            scoring: &Scoring,
            every_planes: usize,
        ) -> (i32, u64) {
            let sink = MemorySink::new();
            let drain = AtomicBool::new(false);
            let mut interruptions = 0u64;
            let mut last_done = 0u64;
            loop {
                drain.store(false, Ordering::Relaxed);
                let wrapper = DrainOnStore {
                    inner: &sink,
                    drain: &drain,
                };
                let ckpt = CheckpointConfig {
                    sink: &wrapper,
                    policy: CheckpointPolicy {
                        every_planes,
                        every: None,
                    },
                    drain: Some(&drain),
                };
                // Round-trip the snapshot through encode/decode so the test
                // covers exactly what a process restart would replay.
                let snap = sink
                    .last()
                    .map(|s| FrontierSnapshot::decode(&s.encode()).expect("round trip"));
                match durable(kind, a, b, c, scoring, &ckpt, snap.as_ref()) {
                    Ok(score) => return (score, interruptions),
                    Err(AlignError::Drained(p)) => {
                        assert!(p.cells_done >= last_done, "progress went backwards");
                        last_done = p.cells_done;
                        interruptions += 1;
                    }
                    Err(e) => panic!("unexpected stop: {e}"),
                }
            }
        }

        #[test]
        fn durable_without_interruption_matches_plain() {
            let (a, b, c) = family_triple(61, 14);
            let sink = MemorySink::new();
            let ckpt = CheckpointConfig::new(&sink).every_planes(4);
            assert_eq!(
                durable(Slabs, &a, &b, &c, &s(), &ckpt, None).unwrap(),
                plain(&a, &b, &c, Slabs)
            );
            assert!(sink.store_count() > 0, "periodic checkpoints must fire");
            assert_eq!(
                durable(Planes, &a, &b, &c, &s(), &ckpt, None).unwrap(),
                plain(&a, &b, &c, Planes)
            );
        }

        #[test]
        fn interrupt_at_every_checkpoint_is_bit_identical() {
            for seed in 0..6 {
                let (a, b, c) = random_triple(seed + 90, 12);
                let reference = crate::full::align_score(&a, &b, &c, &s());
                for kind in [Slabs, Planes] {
                    let (score, interruptions) = run_interrupted(kind, &a, &b, &c, &s(), 1);
                    assert_eq!(score, reference, "{kind:?} seed {seed}");
                    // Non-degenerate inputs must actually have been
                    // interrupted, or the harness proves nothing.
                    if a.len() + b.len() + c.len() > 4 {
                        assert!(interruptions > 0, "{kind:?} seed {seed} never drained");
                    }
                }
            }
        }

        #[test]
        fn empty_inputs_are_durable_too() {
            let e = Seq::dna("").unwrap();
            let a = Seq::dna("ACGT").unwrap();
            for kind in [Slabs, Planes] {
                let (score, _) = run_interrupted(kind, &e, &e, &e, &s(), 1);
                assert_eq!(score, 0, "{kind:?}");
                let (score, _) = run_interrupted(kind, &a, &e, &e, &s(), 1);
                assert_eq!(
                    score,
                    crate::full::align_score(&a, &e, &e, &s()),
                    "{kind:?}"
                );
            }
        }

        #[test]
        fn wrong_fingerprint_is_rejected() {
            let (a, b, c) = random_triple(70, 10);
            let (d, _, _) = random_triple(71, 10);
            let sink = MemorySink::new();
            let drain = AtomicBool::new(true);
            let ckpt = CheckpointConfig::new(&sink).drain_flag(&drain);
            for kind in [Slabs, Planes] {
                // Produce a legitimate snapshot for (a, b, c)...
                let err = durable(kind, &a, &b, &c, &s(), &ckpt, None).unwrap_err();
                assert!(matches!(err, AlignError::Drained(_)), "{kind:?}");
                let snap = sink.last().unwrap();
                // ...and offer it to a different job.
                drain.store(false, Ordering::Relaxed);
                let err = durable(kind, &d, &b, &c, &s(), &ckpt, Some(&snap)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        AlignError::InvalidResume(ResumeError::Fingerprint { .. })
                    ),
                    "{kind:?}: {err:?}"
                );
                // A different scoring scheme is also a fingerprint change.
                let err =
                    durable(kind, &a, &b, &c, &Scoring::unit(), &ckpt, Some(&snap)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        AlignError::InvalidResume(ResumeError::Fingerprint { .. })
                    ),
                    "{kind:?}: {err:?}"
                );
                drain.store(true, Ordering::Relaxed);
            }
        }

        #[test]
        fn wrong_kind_is_rejected() {
            let (a, b, c) = random_triple(72, 10);
            let sink = MemorySink::new();
            let drain = AtomicBool::new(true);
            let ckpt = CheckpointConfig::new(&sink).drain_flag(&drain);
            let err = durable(Slabs, &a, &b, &c, &s(), &ckpt, None).unwrap_err();
            assert!(matches!(err, AlignError::Drained(_)));
            let snap = sink.last().unwrap();
            drain.store(false, Ordering::Relaxed);
            let err = durable(Planes, &a, &b, &c, &s(), &ckpt, Some(&snap)).unwrap_err();
            assert!(matches!(
                err,
                AlignError::InvalidResume(ResumeError::Kind { .. })
            ));
        }

        #[test]
        fn malformed_shape_and_index_are_rejected() {
            let (a, b, c) = random_triple(73, 10);
            let sink = MemorySink::new();
            let ckpt = CheckpointConfig::new(&sink);
            for kind in [Slabs, Planes] {
                let fp = job_fingerprint(&a, &b, &c, &s(), kind);
                let bogus_index = FrontierSnapshot {
                    fingerprint: fp,
                    kind: kind.code(),
                    next_index: u32::MAX,
                    cells_done: 0,
                    buffers: vec![],
                };
                assert!(matches!(
                    durable(kind, &a, &b, &c, &s(), &ckpt, Some(&bogus_index)).unwrap_err(),
                    AlignError::InvalidResume(ResumeError::Index)
                ));
                let bogus_shape = FrontierSnapshot {
                    fingerprint: fp,
                    kind: kind.code(),
                    next_index: 1,
                    cells_done: 0,
                    buffers: vec![vec![0; 3]],
                };
                assert!(matches!(
                    durable(kind, &a, &b, &c, &s(), &ckpt, Some(&bogus_shape)).unwrap_err(),
                    AlignError::InvalidResume(ResumeError::Shape)
                ));
            }
        }

        #[test]
        fn cancel_still_wins_inside_durable_kernels() {
            let (a, b, c) = random_triple(74, 10);
            let sink = MemorySink::new();
            let ckpt = CheckpointConfig::new(&sink);
            let token = CancelToken::never();
            token.cancel();
            let ctx = RunCtx::default().cancel(&token).durable(&ckpt, None);
            for kind in [Slabs, Planes] {
                assert!(
                    matches!(
                        score(&a, &b, &c, &s(), kind, &ctx).unwrap_err(),
                        AlignError::Cancelled(_)
                    ),
                    "{kind:?}"
                );
            }
        }

        #[test]
        fn sink_failure_surfaces() {
            struct FailSink;
            impl CheckpointSink for FailSink {
                fn store(&self, _: &FrontierSnapshot) -> std::io::Result<()> {
                    Err(std::io::Error::other("disk full"))
                }
            }
            let (a, b, c) = random_triple(75, 10);
            let ckpt = CheckpointConfig::new(&FailSink).every_planes(1);
            for kind in [Slabs, Planes] {
                let err = durable(kind, &a, &b, &c, &s(), &ckpt, None).unwrap_err();
                assert!(matches!(err, AlignError::Sink(_)), "{kind:?}: {err:?}");
            }
        }

        #[test]
        fn faces_ignore_a_durable_context() {
            let (a, b, c) = random_triple(76, 10);
            let sink = MemorySink::new();
            let ckpt = CheckpointConfig::new(&sink).every_planes(1);
            let ctx = RunCtx::default().durable(&ckpt, None);
            for kind in [Slabs, Planes] {
                assert_eq!(
                    forward_face(&a, &b, &c, &s(), kind, &ctx).unwrap(),
                    fwd(&a, &b, &c, kind)
                );
            }
            assert_eq!(sink.store_count(), 0, "faces never checkpoint");
        }
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(slab_memory_bytes(9, 9), 2 * 100 * 4);
        assert_eq!(plane_memory_bytes(9, 9), 4 * 100 * 4);
        // Quadratic memory must beat the cube for any realistic n.
        let n = 128usize;
        assert!(plane_memory_bytes(n, n) < (n + 1).pow(3) * 4 / 10);
    }
}
