//! T2 — parallel speedup vs worker count.
//!
//! For each length and thread count: measured wall time of the plane
//! wavefront inside a dedicated `P`-thread pool, measured speedup vs the
//! `P = 1` run, and the calibrated model's prediction for `P` *real*
//! workers (`t_cell` from the measured P = 1 wavefront run, barriers from
//! its leftover vs pure cell work). On a single-core host the measured
//! column is flat by construction; the model column carries the shape.

use tsa_bench::{pool, table::Table, timing, workload, RunConfig};
use tsa_core::{wavefront, RunCtx};
use tsa_perfmodel::{model, planes, CostModel};
use tsa_scoring::Scoring;

pub fn run(cfg: &RunConfig) {
    let scoring = Scoring::dna_default();
    let lengths: Vec<usize> = if cfg.quick {
        vec![cfg.reference_length()]
    } else {
        vec![96, 128, 192]
    };
    let mut t = Table::new(
        &[
            "n",
            "P",
            "time_ms",
            "speedup_meas",
            "eff_meas",
            "speedup_model",
            "eff_model",
        ],
        cfg.csv,
    );
    for n in lengths {
        let (a, b, c) = workload::triple(n);
        let profile = planes::plane_profile(a.len(), b.len(), c.len());
        let mut base_ms = 0.0;
        let mut model_: Option<CostModel> = None;
        for p in cfg.thread_sweep() {
            let (_, wall) = timing::best_of(cfg.reps(), || {
                pool::with_pool(p, || {
                    wavefront::fill(&a, &b, &c, &scoring, &RunCtx::default())
                        .unwrap()
                        .final_score()
                })
            });
            let ms = wall.as_secs_f64() * 1e3;
            if p == 1 {
                base_ms = ms;
                // Calibrate: all P=1 time split between cells and barriers.
                let cells: usize = profile.iter().sum();
                let mut m = CostModel::calibrate_cell(wall.as_nanos() as f64 * 0.95, cells, 0.0);
                m.calibrate_barrier(wall.as_nanos() as f64, &profile, 1);
                model_ = Some(m);
            }
            let m = model_.expect("P=1 measured first");
            let s_meas = base_ms / ms;
            let s_model = m.predict_speedup(&profile, p);
            t.row(vec![
                n.to_string(),
                p.to_string(),
                format!("{ms:.2}"),
                format!("{s_meas:.2}"),
                format!("{:.2}", s_meas / p as f64),
                format!("{s_model:.2}"),
                format!("{:.2}", s_model / p as f64),
            ]);
        }
        let cap = model::speedup_cap(&profile);
        println!("  (n={n}: wavefront speedup cap = mean parallelism = {cap:.0})");
    }
    t.print();
}
