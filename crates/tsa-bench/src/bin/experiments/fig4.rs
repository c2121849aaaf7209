//! F4 — model-predicted vs measured speedup, plus the ideal bound.
//!
//! Three series over `P`: the measured wavefront speedup on this host,
//! the calibrated cost model's prediction for `P` real workers, and the
//! barrier-free ideal bound (`WavefrontStats::speedup_bound`). On a
//! multi-core host the measured curve should track the model; on a
//! single-core host it stays ≈ 1 and the model/ideal curves document what
//! the schedule supports.

use tsa_bench::{pool, table::Table, timing, workload, RunConfig};
use tsa_core::{wavefront, RunCtx};
use tsa_perfmodel::{planes, CostModel};
use tsa_scoring::Scoring;
use tsa_wavefront::stats::WavefrontStats;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let n = cfg.reference_length();
    let (a, b, c) = workload::triple(n);
    let profile = planes::plane_profile(a.len(), b.len(), c.len());
    let stats = WavefrontStats {
        plane_sizes: profile.clone(),
    };

    let mut t = Table::new(&["P", "measured_spd", "model_spd", "ideal_bound"], cfg.csv);
    let mut base = 0.0;
    let mut model: Option<CostModel> = None;
    let sweep: Vec<usize> = if cfg.quick {
        cfg.thread_sweep()
    } else {
        vec![1, 2, 4, 8, 16]
    };
    for p in sweep {
        let (_, wall) = timing::best_of(cfg.reps(), || {
            pool::with_pool(p, || {
                wavefront::fill(&a, &b, &c, &scoring, &RunCtx::default())
                    .unwrap()
                    .final_score()
            })
        });
        if p == 1 {
            base = wall.as_secs_f64();
            let cells: usize = profile.iter().sum();
            let mut m = CostModel::calibrate_cell(wall.as_nanos() as f64 * 0.95, cells, 0.0);
            m.calibrate_barrier(wall.as_nanos() as f64, &profile, 1);
            model = Some(m);
        }
        t.row(vec![
            p.to_string(),
            format!("{:.2}", base / wall.as_secs_f64()),
            format!("{:.2}", model.unwrap().predict_speedup(&profile, p)),
            format!("{:.2}", stats.speedup_bound(p)),
        ]);
    }
    println!("  (n={n}; host cores: {})", pool::host_cores());
    t.print();
}
