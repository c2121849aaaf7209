//! F7 — measured plane profile vs model prediction.
//!
//! Runs the plane-parallel fill under the *profiled* executor at each
//! thread count, prints the per-sweep rollup (occupancy, load imbalance,
//! barrier overhead), fits the two-parameter cost model to the measured
//! profile (`t_cell = busy/cells`, `t_barrier = overhead/planes`), and
//! reports the model's prediction against the measured wall time. The
//! residual delta is exactly what the model cannot express — intra-plane
//! imbalance — so the `imbalance` and `delta` columns should move
//! together.

use tsa_bench::{pool, table::Table, workload, RunConfig};
use tsa_core::wavefront;
use tsa_perfmodel::measured::compare;
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    println!("  (n={n}; model fitted per row from that row's own profile)");

    let mut t = Table::new(
        &[
            "threads",
            "wall_ms",
            "occupancy",
            "imbalance",
            "barrier_pct",
            "t_cell_ns",
            "t_barrier_ns",
            "pred_ms",
            "delta_pct",
        ],
        cfg.csv,
    );
    for threads in cfg.thread_sweep() {
        let (aln, profile) =
            pool::with_pool(threads, || wavefront::align_profiled(&a, &b, &c, &scoring));
        // Keep the result alive until after timing is read: dropping it
        // early would be fine, but using it guards against the fill being
        // optimized into a different shape.
        let _score = aln.score;
        let summary = profile.summary();
        let cmp = compare(&profile);
        t.row(vec![
            threads.to_string(),
            format!("{:.2}", summary.wall_ns as f64 / 1e6),
            format!("{:.2}", summary.occupancy),
            format!("{:.2}", summary.imbalance),
            format!("{:.1}", summary.barrier_frac() * 100.0),
            format!("{:.1}", cmp.model.t_cell_ns),
            format!("{:.0}", cmp.model.t_barrier_ns),
            format!("{:.2}", cmp.predicted_ns / 1e6),
            format!("{:+.1}", cmp.delta_frac() * 100.0),
        ]);
    }
    t.print();
}
