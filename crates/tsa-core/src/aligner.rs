//! The high-level entry point: pick an algorithm, validate the
//! configuration, align.

use crate::alignment::Alignment3;
use crate::cancel::CancelProgress;
use crate::checkpoint::{KernelKind, ResumeError};
use crate::full::{traceback, Lattice};
use crate::kernel::SimdKernel;
use crate::run::RunCtx;
use crate::{
    affine, anchored, banded3, blocked, carrillo_lipman, center_star, full, hirschberg3,
    score_only, tiled, wavefront,
};
use std::fmt;
use tsa_scoring::Scoring;
use tsa_seq::Seq;

/// Which aligner to run. All exact variants produce the same optimal
/// score; `FullDp`/`Wavefront`/`Blocked*` additionally produce identical
/// canonical tracebacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Choose automatically: the affine DP for affine gap models, the
    /// parallel divide-and-conquer when the full lattice would exceed the
    /// memory budget, the plane wavefront otherwise.
    Auto,
    /// Sequential full-lattice DP (`O(n³)` time and space).
    FullDp,
    /// Plane-parallel wavefront DP (full lattice).
    Wavefront,
    /// Tiled wavefront with a barrier per tile plane.
    Blocked {
        /// Tile edge length.
        tile: usize,
    },
    /// Tiled dataflow scheduling (no global barriers) on dedicated workers.
    BlockedDataflow {
        /// Tile edge length.
        tile: usize,
        /// Worker thread count.
        threads: usize,
    },
    /// `t×t×t` tile-wavefront: rayon over anti-diagonal planes of tiles,
    /// SIMD slab rows inside each tile (the score path of choice for long
    /// vector rows; `align3` falls back to the blocked traceback).
    TileWavefront {
        /// Tile edge length.
        tile: usize,
    },
    /// Sequential divide and conquer: optimal alignment in `O(n²)` space.
    Hirschberg,
    /// Parallel divide and conquer (parallel faces + parallel recursion).
    ParallelHirschberg,
    /// Center-star heuristic — **not exact**; `O(n²)` time.
    CenterStar,
    /// Carrillo–Lipman bound-pruned DP: exact, and far cheaper than the
    /// full lattice when the sequences are similar.
    CarrilloLipman,
    /// Banded DP with adaptive band widening — exact (the final fallback
    /// band covers the whole lattice) and cheap for similar sequences.
    BandedAdaptive,
    /// Seed–chain–extend heuristic (**not exact**): exact DP only between
    /// shared k-mer anchors. Near-linear for similar sequences.
    Anchored,
    /// Quasi-natural affine-gap DP (works for linear models too, as
    /// `open = 0`).
    AffineDp,
}

impl Algorithm {
    /// Look up an algorithm by its canonical name — the single spelling
    /// shared by the CLI `--algorithm` flag and the batch-service protocol.
    /// `tile` parameterizes the blocked variants and `threads` the dataflow
    /// scheduler; both are ignored by the other algorithms.
    pub fn by_name(name: &str, tile: usize, threads: usize) -> Option<Algorithm> {
        Some(match name {
            "auto" => Algorithm::Auto,
            "full" => Algorithm::FullDp,
            "wavefront" => Algorithm::Wavefront,
            "blocked" => Algorithm::Blocked { tile },
            "dataflow" => Algorithm::BlockedDataflow { tile, threads },
            "tile-wavefront" => Algorithm::TileWavefront { tile },
            "hirschberg" => Algorithm::Hirschberg,
            "par-hirschberg" => Algorithm::ParallelHirschberg,
            "center-star" => Algorithm::CenterStar,
            "carrillo-lipman" => Algorithm::CarrilloLipman,
            "banded" => Algorithm::BandedAdaptive,
            "anchored" => Algorithm::Anchored,
            "affine" => Algorithm::AffineDp,
            _ => return None,
        })
    }

    /// The canonical name accepted by [`Algorithm::by_name`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::FullDp => "full",
            Algorithm::Wavefront => "wavefront",
            Algorithm::Blocked { .. } => "blocked",
            Algorithm::BlockedDataflow { .. } => "dataflow",
            Algorithm::TileWavefront { .. } => "tile-wavefront",
            Algorithm::Hirschberg => "hirschberg",
            Algorithm::ParallelHirschberg => "par-hirschberg",
            Algorithm::CenterStar => "center-star",
            Algorithm::CarrilloLipman => "carrillo-lipman",
            Algorithm::BandedAdaptive => "banded",
            Algorithm::Anchored => "anchored",
            Algorithm::AffineDp => "affine",
        }
    }
}

/// Why a run produced no result: a configuration or input error found
/// before any work, or a stop requested through the run's [`RunCtx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// The chosen algorithm needs a linear gap model but the scoring is
    /// affine. Use [`Algorithm::AffineDp`] (or `Auto`).
    AffineGapNeedsAffineAlgorithm,
    /// The full lattice would exceed `max_lattice_bytes`.
    LatticeTooLarge {
        /// Bytes the lattice would need.
        required: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Tile edge or thread count of zero.
    BadParameter(&'static str),
    /// The run's [`crate::CancelToken`] fired (explicit cancel or
    /// deadline); only runs whose context carries a token report this.
    /// Carries the progress made before stopping.
    Cancelled(CancelProgress),
    /// The checkpoint drain flag fired; a final snapshot was stored
    /// before stopping.
    Drained(CancelProgress),
    /// The offered resume snapshot failed validation; nothing ran.
    InvalidResume(ResumeError),
    /// The checkpoint sink failed to persist a snapshot (e.g. disk full).
    Sink(String),
}

impl fmt::Display for AlignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlignError::AffineGapNeedsAffineAlgorithm => write!(
                f,
                "affine gap model configured: use Algorithm::AffineDp or Algorithm::Auto"
            ),
            AlignError::LatticeTooLarge { required, budget } => write!(
                f,
                "full lattice needs {required} bytes, over the {budget}-byte budget; \
                 use Hirschberg/ParallelHirschberg or raise max_lattice_bytes"
            ),
            AlignError::BadParameter(p) => write!(f, "invalid parameter: {p}"),
            AlignError::Cancelled(p) => write!(
                f,
                "cancelled mid-kernel after {}/{} cell updates",
                p.cells_done, p.cells_total
            ),
            AlignError::Drained(p) => write!(
                f,
                "drained (snapshot stored) after {}/{} cell updates",
                p.cells_done, p.cells_total
            ),
            AlignError::InvalidResume(e) => write!(f, "invalid resume snapshot: {e}"),
            AlignError::Sink(e) => write!(f, "checkpoint sink failed: {e}"),
        }
    }
}

impl std::error::Error for AlignError {}

/// Builder for three-sequence alignment runs.
///
/// ```
/// use tsa_core::{Aligner, Algorithm};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let a = Seq::dna("ACGT").unwrap();
/// let aln = Aligner::new()
///     .scoring(Scoring::dna_default())
///     .algorithm(Algorithm::Hirschberg)
///     .align3(&a, &a, &a)
///     .unwrap();
/// assert_eq!(aln.score, 4 * 6);
/// ```
#[derive(Debug, Clone)]
pub struct Aligner {
    scoring: Scoring,
    algorithm: Algorithm,
    max_lattice_bytes: usize,
    kernel: SimdKernel,
}

impl Default for Aligner {
    fn default() -> Self {
        Aligner::new()
    }
}

impl Aligner {
    /// Default configuration: DNA default scoring, `Algorithm::Auto`, a
    /// 4 GiB full-lattice budget.
    pub fn new() -> Self {
        Aligner {
            scoring: Scoring::dna_default(),
            algorithm: Algorithm::Auto,
            max_lattice_bytes: 4 << 30,
            kernel: SimdKernel::Auto,
        }
    }

    /// An aligner that picks the algorithm automatically for the given
    /// scoring — by gap model, then by whether the full lattice fits the
    /// memory budget (see [`Aligner::resolve`]). This is the one selection
    /// code path shared by the CLI and the batch service.
    pub fn auto(scoring: Scoring) -> Self {
        Aligner::new().scoring(scoring)
    }

    /// Set the scoring scheme (matrix + gap model).
    pub fn scoring(mut self, scoring: Scoring) -> Self {
        self.scoring = scoring;
        self
    }

    /// Replace only the gap model of the current scoring.
    pub fn gap(mut self, gap: tsa_scoring::GapModel) -> Self {
        self.scoring = self.scoring.with_gap(gap);
        self
    }

    /// Select the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Cap the memory a full-lattice algorithm may allocate; `Auto` uses
    /// this to fall over to divide-and-conquer.
    pub fn max_lattice_bytes(mut self, bytes: usize) -> Self {
        self.max_lattice_bytes = bytes;
        self
    }

    /// Select the SIMD kernel for the score rows (the
    /// `kernel={auto,scalar,sse2,avx2,sse2-i16,avx2-i16}` knob). It drives
    /// every rolling sweep, including the faces of `Hirschberg` and
    /// `ParallelHirschberg` alignments. Every choice produces
    /// bit-identical scores; requests the CPU cannot honor degrade to the
    /// widest supported subset (see [`SimdKernel::resolve`]).
    pub fn kernel(mut self, kernel: SimdKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The configured SIMD kernel request.
    pub fn kernel_choice(&self) -> SimdKernel {
        self.kernel
    }

    /// The effective algorithm `Auto` would resolve to for these lengths.
    pub fn resolve(&self, n1: usize, n2: usize, n3: usize) -> Algorithm {
        match self.algorithm {
            Algorithm::Auto => {
                if self.scoring.gap.linear_penalty().is_none() {
                    Algorithm::AffineDp
                } else if lattice_bytes(n1, n2, n3) > self.max_lattice_bytes {
                    Algorithm::ParallelHirschberg
                } else {
                    Algorithm::Wavefront
                }
            }
            other => other,
        }
    }

    fn check_lattice(&self, n1: usize, n2: usize, n3: usize) -> Result<(), AlignError> {
        let required = lattice_bytes(n1, n2, n3);
        if required > self.max_lattice_bytes {
            return Err(AlignError::LatticeTooLarge {
                required,
                budget: self.max_lattice_bytes,
            });
        }
        Ok(())
    }

    /// Align three sequences, producing a full [`Alignment3`].
    pub fn align3(&self, a: &Seq, b: &Seq, c: &Seq) -> Result<Alignment3, AlignError> {
        let (_, aln) = self.run(a, b, c, Task::Align, &RunCtx::default())?;
        Ok(aln.expect("an align run yields an alignment"))
    }

    /// Compute only the optimal score — uses the quadratic-space passes
    /// where the algorithm permits.
    pub fn score3(&self, a: &Seq, b: &Seq, c: &Seq) -> Result<i32, AlignError> {
        Ok(self.run(a, b, c, Task::Score, &RunCtx::default())?.0)
    }

    /// The checkpointable sweep the resolved algorithm's score path maps
    /// to, if any: the slab-rolling sweep for `FullDp`/`Hirschberg`, the
    /// plane-rolling sweep for `Wavefront`/`ParallelHirschberg`, and — on
    /// a durable run only — for `TileWavefront`. `None` means a durable
    /// [`Task::Score`] run cannot checkpoint or resume for these lengths.
    pub fn durable_kind(&self, n1: usize, n2: usize, n3: usize) -> Option<KernelKind> {
        match self.resolve(n1, n2, n3) {
            Algorithm::FullDp | Algorithm::Hirschberg => Some(KernelKind::Slabs),
            Algorithm::Wavefront
            | Algorithm::ParallelHirschberg
            | Algorithm::TileWavefront { .. } => Some(KernelKind::Planes),
            _ => None,
        }
    }

    /// Run `task` under `ctx` — the one dispatch behind every entry point.
    /// Returns the optimal score and, for [`Task::Align`], the alignment.
    ///
    /// `ctx` supplies the cancel token and the checkpoint config; the SIMD
    /// kernel is always this aligner's [`Aligner::kernel`] setting. The
    /// configuration is validated once, before any work: a linear gap
    /// model unless the plan is `AffineDp`, the lattice budget for plans
    /// that allocate a full lattice, and tile and thread counts ≥ 1.
    ///
    /// The rolling sweeps, the full and wavefront fills, the tile sweep
    /// and the Hirschberg recursions poll the token once per slab, plane
    /// or tile row; the other algorithms check it once before starting.
    /// A durable `ctx` checkpoints the score sweeps named by
    /// [`Aligner::durable_kind`] (a durable `TileWavefront` score runs the
    /// plane sweep so its snapshots stay interchangeable with `Wavefront`
    /// runs); every other plan runs without checkpoints and rejects an
    /// offered snapshot.
    pub fn run(
        &self,
        a: &Seq,
        b: &Seq,
        c: &Seq,
        task: Task,
        ctx: &RunCtx<'_>,
    ) -> Result<(i32, Option<Alignment3>), AlignError> {
        let s = &self.scoring;
        let ctx = &RunCtx {
            kernel: self.kernel,
            ..*ctx
        };
        let (n1, n2, n3) = (a.len(), b.len(), c.len());
        let score_only = task == Task::Score;
        if let Some(snap) = ctx.resume_snapshot() {
            if !score_only || self.durable_kind(n1, n2, n3).is_none() {
                return Err(AlignError::InvalidResume(ResumeError::Kind {
                    expected: 0,
                    found: snap.kind,
                }));
            }
        }
        let algorithm = self.resolve(n1, n2, n3);
        if algorithm != Algorithm::AffineDp && s.gap.linear_penalty().is_none() {
            return Err(AlignError::AffineGapNeedsAffineAlgorithm);
        }
        let lattice = || self.check_lattice(n1, n2, n3);
        let positive = |v: usize, what: &'static str| match v {
            0 => Err(AlignError::BadParameter(what)),
            _ => Ok(()),
        };
        let start = || ctx.poll(CancelProgress::default());
        let aligned = |aln: Alignment3| (aln.score, Some(aln));
        let traced = |lat: Lattice| aligned(traceback(&lat, a, b, c, s));
        let scored = |score: i32| (score, None);
        let (score, alignment) = match algorithm {
            Algorithm::Auto => unreachable!("resolve() never returns Auto"),
            Algorithm::FullDp | Algorithm::Hirschberg if score_only => {
                score_only::score(a, b, c, s, KernelKind::Slabs, ctx).map(scored)
            }
            Algorithm::Wavefront | Algorithm::ParallelHirschberg if score_only => {
                score_only::score(a, b, c, s, KernelKind::Planes, ctx).map(scored)
            }
            Algorithm::TileWavefront { tile } if score_only && ctx.durable.is_some() => {
                positive(tile, "tile must be ≥ 1")?;
                score_only::score(a, b, c, s, KernelKind::Planes, ctx).map(scored)
            }
            Algorithm::TileWavefront { tile } if score_only => {
                lattice()?;
                positive(tile, "tile must be ≥ 1")?;
                tiled::score(a, b, c, s, tile, ctx).map(scored)
            }
            Algorithm::FullDp => {
                lattice()?;
                full::fill(a, b, c, s, ctx).map(traced)
            }
            Algorithm::Wavefront => {
                lattice()?;
                wavefront::fill(a, b, c, s, ctx).map(traced)
            }
            // Traceback needs per-cell moves; for tile-wavefront the
            // blocked tiling produces the identical canonical alignment.
            Algorithm::Blocked { tile } | Algorithm::TileWavefront { tile } => {
                lattice()?;
                positive(tile, "tile must be ≥ 1")?;
                start()?;
                Ok(aligned(blocked::align(a, b, c, s, tile)))
            }
            Algorithm::BlockedDataflow { tile, threads } => {
                lattice()?;
                positive(tile, "tile must be ≥ 1")?;
                positive(threads, "threads must be ≥ 1")?;
                start()?;
                Ok(aligned(blocked::align_dataflow(a, b, c, s, tile, threads)))
            }
            Algorithm::Hirschberg => hirschberg3::solve(a, b, c, s, false, ctx).map(aligned),
            Algorithm::ParallelHirschberg => hirschberg3::solve(a, b, c, s, true, ctx).map(aligned),
            Algorithm::CenterStar => {
                start()?;
                Ok(aligned(center_star::align(a, b, c, s).alignment))
            }
            Algorithm::CarrilloLipman => {
                lattice()?;
                start()?;
                Ok(aligned(carrillo_lipman::align(a, b, c, s)))
            }
            Algorithm::BandedAdaptive => {
                lattice()?;
                start()?;
                Ok(aligned(banded3::align_adaptive(a, b, c, s)))
            }
            Algorithm::Anchored => {
                start()?;
                let config = anchored::AnchorConfig::default();
                Ok(aligned(anchored::align(a, b, c, s, &config)))
            }
            Algorithm::AffineDp if score_only => {
                start()?;
                Ok(scored(affine::align_score(a, b, c, s)))
            }
            Algorithm::AffineDp => {
                start()?;
                Ok(aligned(affine::align(a, b, c, s)))
            }
        }?;
        // Plans without a score-only pass ran the alignment; a score task
        // still returns only the score.
        Ok((score, alignment.filter(|_| !score_only)))
    }
}

/// What [`Aligner::run`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// An optimal alignment (and its score).
    Align,
    /// Only the optimal score, through the quadratic-space passes where
    /// the algorithm has them.
    Score,
}

/// Bytes a full `i32` lattice for these lengths needs.
pub fn lattice_bytes(n1: usize, n2: usize, n3: usize) -> usize {
    (n1 + 1) * (n2 + 1) * (n3 + 1) * std::mem::size_of::<i32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::checkpoint::{CheckpointConfig, CheckpointSink, FrontierSnapshot, MemorySink};
    use crate::test_util::family_triple;
    use tsa_scoring::GapModel;

    const ALL: [Algorithm; 13] = [
        Algorithm::Auto,
        Algorithm::FullDp,
        Algorithm::Wavefront,
        Algorithm::Blocked { tile: 4 },
        Algorithm::BlockedDataflow {
            tile: 4,
            threads: 2,
        },
        Algorithm::TileWavefront { tile: 4 },
        Algorithm::Hirschberg,
        Algorithm::ParallelHirschberg,
        Algorithm::CenterStar,
        Algorithm::CarrilloLipman,
        Algorithm::BandedAdaptive,
        Algorithm::Anchored,
        Algorithm::AffineDp,
    ];

    /// How a test drives a task: the plain `align3`/`score3` entry points,
    /// a run with a (never-firing) cancel token, or a durable run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Mode {
        Plain,
        Cancel,
        Durable,
    }

    type Run = Result<(i32, Option<Alignment3>), AlignError>;

    fn run_in(al: &Aligner, a: &Seq, b: &Seq, c: &Seq, task: Task, mode: Mode) -> Run {
        let token = CancelToken::never();
        let sink = MemorySink::new();
        let ckpt = CheckpointConfig::new(&sink).every_planes(2);
        let ctx = match mode {
            Mode::Plain => {
                return match task {
                    Task::Align => al.align3(a, b, c).map(|aln| (aln.score, Some(aln))),
                    Task::Score => al.score3(a, b, c).map(|score| (score, None)),
                }
            }
            Mode::Cancel => RunCtx::default().cancel(&token),
            Mode::Durable => RunCtx::default().cancel(&token).durable(&ckpt, None),
        };
        al.run(a, b, c, task, &ctx)
    }

    fn outcome(r: &Run) -> &'static str {
        match r {
            Ok(_) => "Ok",
            Err(AlignError::AffineGapNeedsAffineAlgorithm) => "AffineGapNeedsAffineAlgorithm",
            Err(AlignError::LatticeTooLarge { .. }) => "LatticeTooLarge",
            Err(AlignError::BadParameter(_)) => "BadParameter",
            Err(e) => panic!("unexpected stop: {e}"),
        }
    }

    fn with_tile(alg: Algorithm, tile: usize) -> Algorithm {
        match alg {
            Algorithm::Blocked { .. } => Algorithm::Blocked { tile },
            Algorithm::BlockedDataflow { threads, .. } => {
                Algorithm::BlockedDataflow { tile, threads }
            }
            Algorithm::TileWavefront { .. } => Algorithm::TileWavefront { tile },
            other => other,
        }
    }

    fn with_threads(alg: Algorithm, threads: usize) -> Algorithm {
        match alg {
            Algorithm::BlockedDataflow { tile, .. } => Algorithm::BlockedDataflow { tile, threads },
            other => other,
        }
    }

    /// Every algorithm × task × mode must accept or refuse a bad
    /// configuration alike: the plain, cancellable and durable runs share
    /// one validation.
    #[test]
    fn every_mode_validates_alike() {
        let (a, b, c) = family_triple(19, 8);
        type Configure = fn(Algorithm) -> Aligner;
        let conditions: [(&str, Configure); 4] = [
            ("tile 0", |alg| Aligner::new().algorithm(with_tile(alg, 0))),
            ("threads 0", |alg| {
                Aligner::new().algorithm(with_threads(alg, 0))
            }),
            ("affine gaps", |alg| {
                Aligner::new().algorithm(alg).gap(GapModel::affine(-4, -1))
            }),
            ("lattice over budget", |alg| {
                Aligner::new().algorithm(alg).max_lattice_bytes(64)
            }),
        ];
        for (condition, configure) in conditions {
            let mut refused = 0;
            for alg in ALL {
                let al = configure(alg);
                for task in [Task::Align, Task::Score] {
                    let plain = outcome(&run_in(&al, &a, &b, &c, task, Mode::Plain));
                    refused += usize::from(plain != "Ok");
                    for mode in [Mode::Cancel, Mode::Durable] {
                        // The one intended difference: a durable
                        // tile-wavefront score runs the O(n²) plane sweep
                        // (its snapshots stay interchangeable with
                        // `Wavefront` runs), so it allocates no lattice and
                        // the lattice budget does not refuse it.
                        let want = if condition == "lattice over budget"
                            && task == Task::Score
                            && mode == Mode::Durable
                            && matches!(alg, Algorithm::TileWavefront { .. })
                        {
                            "Ok"
                        } else {
                            plain
                        };
                        let got = outcome(&run_in(&al, &a, &b, &c, task, mode));
                        let configured = al.algorithm;
                        assert_eq!(got, want, "{condition}: {configured:?} {task:?} {mode:?}");
                    }
                }
            }
            assert!(
                refused > 0,
                "{condition} refused nothing: the row is vacuous"
            );
        }
    }

    #[test]
    fn all_exact_algorithms_agree() {
        let (a, b, c) = family_triple(8, 20);
        let reference = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        for alg in [
            Algorithm::Auto,
            Algorithm::Wavefront,
            Algorithm::Blocked { tile: 8 },
            Algorithm::BlockedDataflow {
                tile: 8,
                threads: 3,
            },
            Algorithm::TileWavefront { tile: 8 },
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::CarrilloLipman,
            Algorithm::BandedAdaptive,
        ] {
            let aln = Aligner::new().algorithm(alg).align3(&a, &b, &c).unwrap();
            assert_eq!(aln.score, reference.score, "{alg:?}");
            aln.validate_scored(&a, &b, &c, &Scoring::dna_default())
                .unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        }
    }

    #[test]
    fn score3_agrees_with_align3() {
        let (a, b, c) = family_triple(9, 18);
        for alg in [
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::Blocked { tile: 4 },
            Algorithm::TileWavefront { tile: 4 },
        ] {
            let al = Aligner::new().algorithm(alg).align3(&a, &b, &c).unwrap();
            let sc = Aligner::new().algorithm(alg).score3(&a, &b, &c).unwrap();
            assert_eq!(al.score, sc, "{alg:?}");
        }
    }

    #[test]
    fn names_round_trip_through_by_name() {
        for alg in [
            Algorithm::Auto,
            Algorithm::FullDp,
            Algorithm::Wavefront,
            Algorithm::Blocked { tile: 8 },
            Algorithm::BlockedDataflow {
                tile: 8,
                threads: 2,
            },
            Algorithm::TileWavefront { tile: 8 },
            Algorithm::Hirschberg,
            Algorithm::ParallelHirschberg,
            Algorithm::CenterStar,
            Algorithm::CarrilloLipman,
            Algorithm::BandedAdaptive,
            Algorithm::Anchored,
            Algorithm::AffineDp,
        ] {
            assert_eq!(Algorithm::by_name(alg.name(), 8, 2), Some(alg));
        }
        assert_eq!(Algorithm::by_name("nope", 8, 2), None);
    }

    #[test]
    fn auto_constructor_selects_like_resolve() {
        let (a, b, c) = family_triple(7, 14);
        let auto = Aligner::auto(Scoring::dna_default());
        assert_eq!(
            auto.resolve(a.len(), b.len(), c.len()),
            Algorithm::Wavefront
        );
        let pinned = Aligner::new().algorithm(Algorithm::FullDp);
        assert_eq!(
            auto.align3(&a, &b, &c).unwrap().score,
            pinned.align3(&a, &b, &c).unwrap().score
        );
    }

    #[test]
    fn auto_resolves_affine_to_affine_dp() {
        let al = Aligner::new().gap(GapModel::affine(-4, -1));
        assert_eq!(al.resolve(10, 10, 10), Algorithm::AffineDp);
    }

    #[test]
    fn auto_resolves_large_to_dc() {
        let al = Aligner::new().max_lattice_bytes(1 << 20);
        assert_eq!(al.resolve(1000, 1000, 1000), Algorithm::ParallelHirschberg);
        assert_eq!(al.resolve(10, 10, 10), Algorithm::Wavefront);
    }

    #[test]
    fn affine_scoring_rejected_by_linear_algorithms() {
        let (a, b, c) = family_triple(2, 6);
        let err = Aligner::new()
            .gap(GapModel::affine(-4, -1))
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap_err();
        assert_eq!(err, AlignError::AffineGapNeedsAffineAlgorithm);
    }

    #[test]
    fn affine_via_auto_works() {
        let (a, b, c) = family_triple(3, 8);
        let aln = Aligner::new()
            .gap(GapModel::affine(-4, -1))
            .align3(&a, &b, &c)
            .unwrap();
        aln.validate(&a, &b, &c).unwrap();
    }

    #[test]
    fn lattice_budget_is_enforced() {
        let (a, b, c) = family_triple(4, 40);
        let err = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .max_lattice_bytes(1024)
            .align3(&a, &b, &c)
            .unwrap_err();
        assert!(matches!(err, AlignError::LatticeTooLarge { .. }));
        // But Hirschberg has no full lattice, so it still runs.
        Aligner::new()
            .algorithm(Algorithm::Hirschberg)
            .max_lattice_bytes(1024)
            .align3(&a, &b, &c)
            .unwrap();
    }

    #[test]
    fn bad_parameters_are_reported() {
        let (a, b, c) = family_triple(5, 6);
        assert!(matches!(
            Aligner::new()
                .algorithm(Algorithm::Blocked { tile: 0 })
                .align3(&a, &b, &c),
            Err(AlignError::BadParameter(_))
        ));
        assert!(matches!(
            Aligner::new()
                .algorithm(Algorithm::BlockedDataflow {
                    tile: 4,
                    threads: 0
                })
                .align3(&a, &b, &c),
            Err(AlignError::BadParameter(_))
        ));
        assert!(matches!(
            Aligner::new()
                .algorithm(Algorithm::TileWavefront { tile: 0 })
                .score3(&a, &b, &c),
            Err(AlignError::BadParameter(_))
        ));
    }

    #[test]
    fn anchored_is_a_valid_heuristic() {
        let (a, b, c) = family_triple(14, 30);
        let exact = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        let anchored = Aligner::new()
            .algorithm(Algorithm::Anchored)
            .align3(&a, &b, &c)
            .unwrap();
        anchored.validate(&a, &b, &c).unwrap();
        assert!(anchored.score <= exact.score);
    }

    #[test]
    fn center_star_is_a_valid_heuristic() {
        let (a, b, c) = family_triple(6, 16);
        let exact = Aligner::new()
            .algorithm(Algorithm::FullDp)
            .align3(&a, &b, &c)
            .unwrap();
        let star = Aligner::new()
            .algorithm(Algorithm::CenterStar)
            .align3(&a, &b, &c)
            .unwrap();
        star.validate(&a, &b, &c).unwrap();
        assert!(star.score <= exact.score);
    }

    #[test]
    fn cancellable_and_durable_runs_match_plain_when_unfired() {
        let (a, b, c) = family_triple(12, 16);
        for alg in ALL {
            let al = Aligner::new().algorithm(alg);
            for task in [Task::Align, Task::Score] {
                let plain = run_in(&al, &a, &b, &c, task, Mode::Plain).unwrap();
                assert_eq!(plain.1.is_some(), task == Task::Align, "{alg:?} {task:?}");
                for mode in [Mode::Cancel, Mode::Durable] {
                    assert_eq!(
                        run_in(&al, &a, &b, &c, task, mode).unwrap(),
                        plain,
                        "{alg:?} {task:?} {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fired_token_yields_cancelled_error_for_every_algorithm() {
        let (a, b, c) = family_triple(13, 16);
        let token = CancelToken::never();
        token.cancel();
        let ctx = RunCtx::default().cancel(&token);
        for alg in ALL {
            let al = Aligner::new().algorithm(alg);
            for task in [Task::Align, Task::Score] {
                assert!(
                    matches!(
                        al.run(&a, &b, &c, task, &ctx),
                        Err(AlignError::Cancelled(_))
                    ),
                    "{alg:?} {task:?}"
                );
            }
        }
    }

    #[test]
    fn durable_kind_maps_score_kernels() {
        let al = Aligner::new();
        use crate::checkpoint::KernelKind;
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::Hirschberg)
                .durable_kind(8, 8, 8),
            Some(KernelKind::Slabs)
        );
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::Wavefront)
                .durable_kind(8, 8, 8),
            Some(KernelKind::Planes)
        );
        assert_eq!(al.durable_kind(8, 8, 8), Some(KernelKind::Planes)); // Auto
        assert_eq!(
            Aligner::new()
                .algorithm(Algorithm::CenterStar)
                .durable_kind(8, 8, 8),
            None
        );
        assert_eq!(
            Aligner::new()
                .gap(GapModel::affine(-4, -1))
                .durable_kind(8, 8, 8),
            None
        );
    }

    #[test]
    fn durable_run_resumes_a_drained_sweep() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (a, b, c) = family_triple(23, 20);
        let al = Aligner::new().algorithm(Algorithm::Wavefront);
        let sink = MemorySink::new();
        let drain = AtomicBool::new(false);
        let ckpt = CheckpointConfig::new(&sink)
            .every_planes(1)
            .drain_flag(&drain);

        // Arrange a mid-sweep drain: checkpoint every plane, fire the
        // drain flag once a snapshot exists.
        struct FireAfter<'a> {
            inner: &'a MemorySink,
            drain: &'a AtomicBool,
        }
        impl CheckpointSink for FireAfter<'_> {
            fn store(&self, s: &FrontierSnapshot) -> std::io::Result<()> {
                self.inner.store(s)?;
                self.drain.store(true, Ordering::Relaxed);
                Ok(())
            }
        }
        let firing = FireAfter {
            inner: &sink,
            drain: &drain,
        };
        let interrupting = CheckpointConfig {
            sink: &firing,
            policy: ckpt.policy,
            drain: Some(&drain),
        };
        let ctx = RunCtx::default().durable(&interrupting, None);
        let stop = al.run(&a, &b, &c, Task::Score, &ctx).unwrap_err();
        assert!(matches!(stop, AlignError::Drained(_)));

        let snap = sink.last().expect("snapshot stored");
        drain.store(false, Ordering::Relaxed);
        let ctx = RunCtx::default().durable(&ckpt, Some(&snap));
        let (resumed, _) = al.run(&a, &b, &c, Task::Score, &ctx).unwrap();
        assert_eq!(resumed, al.score3(&a, &b, &c).unwrap());
    }

    #[test]
    fn non_durable_plans_reject_snapshots() {
        let (a, b, c) = family_triple(29, 10);
        let sink = MemorySink::new();
        let ckpt = CheckpointConfig::new(&sink);
        let snap = FrontierSnapshot {
            fingerprint: 1,
            kind: 2,
            next_index: 0,
            cells_done: 0,
            buffers: vec![],
        };
        let ctx = RunCtx::default().durable(&ckpt, Some(&snap));
        let center_star = Aligner::new().algorithm(Algorithm::CenterStar);
        let wavefront = Aligner::new().algorithm(Algorithm::Wavefront);
        for (al, task) in [(&center_star, Task::Score), (&wavefront, Task::Align)] {
            let err = al.run(&a, &b, &c, task, &ctx).unwrap_err();
            assert!(matches!(err, AlignError::InvalidResume(_)), "{task:?}");
        }
    }

    #[test]
    fn error_messages_render() {
        assert!(AlignError::AffineGapNeedsAffineAlgorithm
            .to_string()
            .contains("AffineDp"));
        assert!(AlignError::LatticeTooLarge {
            required: 10,
            budget: 5
        }
        .to_string()
        .contains("10"));
        assert!(AlignError::BadParameter("x").to_string().contains('x'));
    }
}
