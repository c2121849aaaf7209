//! The per-run context every sweep takes.
//!
//! Each executor in this crate has exactly one sweep loop, and the
//! per-run choices are the fields of one [`RunCtx`]: the SIMD row kernel,
//! a [`CancelToken`] to poll, and a checkpoint configuration (plus a
//! snapshot to resume from). The sweeps consult the context once per
//! slab, plane or tile row — never per cell — so an empty context costs
//! one branch per `O(n²)` cells.

use crate::aligner::AlignError;
use crate::cancel::{CancelProgress, CancelToken};
use crate::checkpoint::{CheckpointConfig, FrontierSnapshot};
use crate::kernel::SimdKernel;

/// The `expect` message of entry points that run a sweep under
/// [`RunCtx::default`], which carries nothing that could stop it.
pub(crate) const UNSTOPPABLE: &str = "a default RunCtx cannot stop a sweep";

/// How one sweep runs: which SIMD kernel, whether it can be cancelled,
/// and whether it checkpoints. [`RunCtx::default`] runs the `auto`
/// kernel to completion without checkpoints.
///
/// ```
/// use tsa_core::checkpoint::KernelKind;
/// use tsa_core::{score_only, CancelToken, RunCtx, SimdKernel};
/// use tsa_scoring::Scoring;
/// use tsa_seq::Seq;
///
/// let a = Seq::dna("GATTACA").unwrap();
/// let token = CancelToken::never();
/// let ctx = RunCtx::default().kernel(SimdKernel::Scalar).cancel(&token);
/// let score = score_only::score(&a, &a, &a, &Scoring::dna_default(), KernelKind::Slabs, &ctx);
/// assert_eq!(score, Ok(7 * 6));
/// ```
#[derive(Clone, Copy, Default)]
pub struct RunCtx<'a> {
    pub(crate) kernel: SimdKernel,
    pub(crate) cancel: Option<&'a CancelToken>,
    pub(crate) durable: Option<(&'a CheckpointConfig<'a>, Option<&'a FrontierSnapshot>)>,
}

impl<'a> RunCtx<'a> {
    /// Run the score rows with `kernel`. Every kernel produces
    /// bit-identical scores; the choice is a throughput knob.
    pub fn kernel(mut self, kernel: SimdKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Poll `token` once per slab, plane or tile row; a fired token stops
    /// the sweep with [`AlignError::Cancelled`] and the progress made.
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Checkpoint the frontier through `config` and, when `resume` is
    /// given, continue that snapshot's sweep instead of starting over.
    /// Only the rolling score sweeps ([`crate::score_only::score`])
    /// checkpoint; every other sweep ignores the config.
    pub fn durable(
        mut self,
        config: &'a CheckpointConfig<'a>,
        resume: Option<&'a FrontierSnapshot>,
    ) -> Self {
        self.durable = Some((config, resume));
        self
    }

    /// The snapshot this run was asked to resume from, if any.
    pub(crate) fn resume_snapshot(&self) -> Option<&'a FrontierSnapshot> {
        self.durable.and_then(|(_, resume)| resume)
    }

    /// The same context without checkpointing (for sweeps whose output
    /// is not resumable, such as the faces of a divide and conquer).
    pub(crate) fn transient(self) -> Self {
        RunCtx {
            durable: None,
            ..self
        }
    }

    /// True once the token (if any) has fired.
    pub(crate) fn should_stop(&self) -> bool {
        self.cancel.is_some_and(CancelToken::should_stop)
    }

    /// The once-per-slab/plane poll: `Err(Cancelled(progress))` when the
    /// token fired.
    pub(crate) fn poll(&self, progress: CancelProgress) -> Result<(), AlignError> {
        if self.should_stop() {
            return Err(AlignError::Cancelled(progress));
        }
        Ok(())
    }
}
