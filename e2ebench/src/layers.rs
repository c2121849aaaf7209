//! The traced run: per-layer numbers from spans the benchmark records
//! around its calls into each layer's public functions, on the inputs of
//! the end-to-end workloads.

use std::io::Write;
use std::path::Path;

use rayon::ThreadPool;
use tsa_core::kernel::SimdKernel;
use tsa_core::{aligner, full, hirschberg3, score_only, tiled, wavefront, Algorithm, Aligner};
use tsa_scoring::Scoring;
use tsa_service::{Engine, ServiceConfig};

use crate::inputs::{self, Job};
use crate::run::{self, E2e};
use crate::stats::{self, Tally, Verdict};
use crate::trace::{self, SpanLog};
use crate::wire::Server;
use crate::{host, Metric, Workload};

/// Calls per probe; each probe reports the median.
const PROBE_REPEATS: usize = 3;
/// Cached round trips per path.
const ROUNDTRIPS: usize = 20;
/// Engine jobs per traced slice whose wait is compared with a solo call.
const OVERHEAD_JOBS: usize = 6;

/// Kernels in the order they are reported, with their probe span names
/// (slab sweep, plane sweep).
const KERNELS: [(SimdKernel, &str, &str); 6] = [
    (
        SimdKernel::Scalar,
        "kernel.scalar.slab",
        "kernel.scalar.plane",
    ),
    (SimdKernel::Sse2, "kernel.sse2.slab", "kernel.sse2.plane"),
    (SimdKernel::Avx2, "kernel.avx2.slab", "kernel.avx2.plane"),
    (
        SimdKernel::Sse2I16,
        "kernel.sse2-i16.slab",
        "kernel.sse2-i16.plane",
    ),
    (
        SimdKernel::Avx2I16,
        "kernel.avx2-i16.slab",
        "kernel.avx2-i16.plane",
    ),
    (SimdKernel::Auto, "kernel.auto.slab", "kernel.auto.plane"),
];

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon stand-in never fails to build")
}

fn median_ms(log: &SpanLog, name: &str) -> f64 {
    stats::median(&log.durations_ms(name)).unwrap_or(f64::NAN)
}

/// Everything the traced run collects.
struct Layers<'a> {
    seed: u64,
    job: &'a Job,
    log: SpanLog,
    tally: Tally,
}

impl Layers<'_> {
    /// Call `f` [`PROBE_REPEATS`] times under `pool`, each call a span
    /// named `name`, checking each result. Returns the median in ms.
    fn probe<R>(
        &mut self,
        name: &'static str,
        pool: &ThreadPool,
        f: impl Fn(&Job) -> R,
        check: impl Fn(&R, &Job) -> Verdict,
    ) -> f64 {
        for _ in 0..PROBE_REPEATS {
            let out = self.log.span(0, 0, name, |_| pool.install(|| f(self.job)));
            let v = check(&out, self.job);
            if v != Verdict::Ok {
                eprintln!(
                    "e2ebench: mismatch in probe {name}: workload=solo-align seed={} job=0: {v:?}",
                    self.seed
                );
            }
            self.tally.add(&v);
        }
        median_ms(&self.log, name)
    }
}

fn check_score(score: &i32, job: &Job) -> Verdict {
    if *score == job.reference {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!("score {score} != reference {}", job.reference))
    }
}

/// Kernel, executor and aligner layers on the first `solo-align` input.
fn core_layers(l: &mut Layers<'_>, out: &mut Vec<Metric>) {
    let s = Scoring::dna_default();
    let (t1, tmax) = (pool(1), pool(host::nproc()));
    let (a, b, c) = (&l.job.a, &l.job.b, &l.job.c);
    let mcells = ((a.len() + 1) * (b.len() + 1) * (c.len() + 1)) as f64 / 1e6;
    let mut slab = [0.0; KERNELS.len()];
    let mut plane = [0.0; KERNELS.len()];
    for (i, (k, slab_span, plane_span)) in KERNELS.into_iter().enumerate() {
        slab[i] = l.probe(
            slab_span,
            &t1,
            |j| score_only::score_slabs_with(&j.a, &j.b, &j.c, &s, k),
            check_score,
        );
        plane[i] = l.probe(
            plane_span,
            &t1,
            |j| score_only::score_planes_parallel_with(&j.a, &j.b, &j.c, &s, k),
            check_score,
        );
    }
    for (i, (k, ..)) in KERNELS.into_iter().enumerate() {
        out.push(Metric::new(
            format!("kernel.{}.slab_mcells_s", k.name()),
            mcells / (slab[i] / 1e3),
            "Mcell/s",
        ));
    }
    for (i, (k, ..)) in KERNELS.into_iter().enumerate() {
        out.push(Metric::new(
            format!("kernel.{}.plane_mcells_s", k.name()),
            mcells / (plane[i] / 1e3),
            "Mcell/s",
        ));
    }
    // The `auto` kernel rows above are the 1-thread score executors.
    let slab_t1 = slab[KERNELS.len() - 1];
    let planes_t1 = plane[KERNELS.len() - 1];
    let planes_tmax = l.probe(
        "score_only.planes.tmax",
        &tmax,
        |j| score_only::score_planes_parallel(&j.a, &j.b, &j.c, &s),
        check_score,
    );
    let tiled_tmax = l.probe(
        "tiled.score.tmax",
        &tmax,
        |j| tiled::score_tiles(&j.a, &j.b, &j.c, &s, tiled::DEFAULT_TILE),
        check_score,
    );
    let hirsch_t1 = l.probe(
        "hirschberg3.align.t1",
        &t1,
        |j| hirschberg3::align(&j.a, &j.b, &j.c, &s),
        run::check_alignment,
    );
    let par_hirsch_tmax = l.probe(
        "hirschberg3.align_parallel.tmax",
        &tmax,
        |j| hirschberg3::align_parallel(&j.a, &j.b, &j.c, &s),
        run::check_alignment,
    );
    let wavefront_tmax = l.probe(
        "wavefront.align.tmax",
        &tmax,
        |j| wavefront::align(&j.a, &j.b, &j.c, &s),
        run::check_alignment,
    );
    let full_t1 = l.probe(
        "full.align.t1",
        &t1,
        |j| full::align(&j.a, &j.b, &j.c, &s),
        run::check_alignment,
    );
    // `Aligner::auto` runs at its default width, as `tsa align` does.
    let auto = Aligner::auto(s.clone());
    let auto_align = l.probe(
        "aligner.auto.align3",
        &tmax,
        |j| auto.align3(&j.a, &j.b, &j.c).expect("auto aligns DNA"),
        run::check_alignment,
    );
    let auto_score = l.probe(
        "aligner.auto.score3",
        &tmax,
        |j| auto.score3(&j.a, &j.b, &j.c).expect("auto scores DNA"),
        check_score,
    );
    let best_score = slab_t1.min(planes_t1).min(planes_tmax).min(tiled_tmax);
    let best_align = hirsch_t1
        .min(par_hirsch_tmax)
        .min(wavefront_tmax)
        .min(full_t1);
    let (n1, n2, n3) = (a.len(), b.len(), c.len());
    let plan_bytes = match auto.resolve(n1, n2, n3) {
        Algorithm::Hirschberg => score_only::slab_memory_bytes(n2, n3),
        Algorithm::ParallelHirschberg => score_only::plane_memory_bytes(n1, n2),
        _ => aligner::lattice_bytes(n1, n2, n3),
    };
    out.extend([
        Metric::new("score_only.slab.t1_ms", slab_t1, "ms"),
        Metric::new("score_only.planes.t1_ms", planes_t1, "ms"),
        Metric::new("score_only.planes.tmax_ms", planes_tmax, "ms"),
        Metric::new("tiled.score.tmax_ms", tiled_tmax, "ms"),
        Metric::new("hirschberg3.align.t1_ms", hirsch_t1, "ms"),
        Metric::new("hirschberg3.align_parallel.tmax_ms", par_hirsch_tmax, "ms"),
        Metric::new("wavefront.align.tmax_ms", wavefront_tmax, "ms"),
        Metric::new("full.align.t1_ms", full_t1, "ms"),
        Metric::new(
            "executor.score_speedup",
            slab_t1 / planes_tmax.min(tiled_tmax),
            "ratio",
        ),
        Metric::new(
            "executor.align_speedup",
            hirsch_t1 / par_hirsch_tmax,
            "ratio",
        ),
        Metric::new(
            "aligner.auto_over_best.align",
            auto_align / best_align,
            "ratio",
        ),
        Metric::new(
            "aligner.auto_over_best.score",
            auto_score / best_score,
            "ratio",
        ),
        Metric::new(
            "aligner.plan_mb",
            plan_bytes as f64 / (1 << 20) as f64,
            "MiB-computed",
        ),
    ]);
}

/// `engine.overhead_ms.p50`: an engine job's wait minus a solo
/// in-process `Aligner` call on the same request.
fn engine_overhead(batch_log: &SpanLog, jobs: &[Job], tally: &mut Tally) -> f64 {
    let auto = Aligner::auto(Scoring::dna_default());
    let waits = batch_log.spans();
    let mut overheads = Vec::new();
    for w in waits
        .iter()
        .filter(|s| s.name == "engine.wait" && (s.job as usize) < OVERHEAD_JOBS)
    {
        let job = &jobs[w.job as usize];
        let solo_ms;
        let t0 = std::time::Instant::now();
        let v = if job.score_only {
            let score = auto
                .score3(&job.a, &job.b, &job.c)
                .expect("auto scores DNA");
            solo_ms = t0.elapsed().as_secs_f64() * 1e3;
            check_score(&score, job)
        } else {
            let aln = auto
                .align3(&job.a, &job.b, &job.c)
                .expect("auto aligns DNA");
            solo_ms = t0.elapsed().as_secs_f64() * 1e3;
            run::check_alignment(&aln, job)
        };
        tally.add(&v);
        overheads.push(w.duration_ns() as f64 / 1e6 - solo_ms);
    }
    stats::median(&overheads).unwrap_or(f64::NAN)
}

/// Send `line` once to fill the cache, then [`ROUNDTRIPS`] more times as
/// spans named `name`, checking every reply.
fn cached_roundtrips(
    seed: u64,
    server: &Server,
    line: &str,
    job: &Job,
    log: &SpanLog,
    name: &'static str,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut conn = server.connect()?;
    for i in 0..=ROUNDTRIPS {
        let reply = if i == 0 {
            conn.call(line)
        } else {
            log.span(0, 0, name, |_| conn.call(line))
        };
        let v = match reply {
            Ok(r) => run::check_reply(&r, job),
            Err(e) => Verdict::Failed(e.to_string()),
        };
        if v != Verdict::Ok {
            eprintln!(
                "e2ebench: mismatch in {name} round trip {i}: workload=cluster-small-repeat seed={seed} job=0: {v:?}"
            );
        }
        tally.add(&v);
    }
    Ok(())
}

/// Server and cluster layers: one cached request to a lone `tsa serve`,
/// through an in-process engine, and through the cluster front door.
fn wire_layers(
    seed: u64,
    log: &SpanLog,
    tally: &mut Tally,
    tsa: &Path,
    job: &Job,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let line = run::submit_line(job, 0);
    let serve = Server::spawn(
        tsa,
        &["serve", "--listen", "127.0.0.1:0"],
        "# tsa serve: listening on ",
    )?;
    cached_roundtrips(seed, &serve, &line, job, log, "server.roundtrip", tally)?;
    serve.shutdown()?;

    let engine = Engine::start(ServiceConfig::default());
    for i in 0..=ROUNDTRIPS {
        let call = || {
            engine
                .submit_blocking(run::request(job, 0))
                .map(|h| h.wait())
        };
        let outcome = if i == 0 {
            call()
        } else {
            log.span(0, 0, "server.engine_cached", |_| call())
        };
        tally.add(&run::check_outcome(&outcome, job));
    }
    engine.shutdown();

    let cluster = run::spawn_cluster(tsa)?;
    cached_roundtrips(seed, &cluster, &line, job, log, "cluster.roundtrip", tally)?;
    cluster.shutdown()?;

    let server_ms = median_ms(log, "server.roundtrip");
    let cluster_ms = median_ms(log, "cluster.roundtrip");
    out.extend([
        Metric::new("server.roundtrip_ms.p50", server_ms, "ms"),
        Metric::new(
            "server.engine_cached_us.p50",
            median_ms(log, "server.engine_cached") * 1e3,
            "us",
        ),
        Metric::new("cluster.roundtrip_ms.p50", cluster_ms, "ms"),
        Metric::new("cluster.hop_ms.p50", cluster_ms - server_ms, "ms"),
    ]);
    Ok(())
}

/// The whole traced pass. Each workload runs in four slices of a quarter
/// of `seconds`, untraced and traced in turn; the traced slices feed the
/// engine and cluster layer numbers, and the two arms give
/// `trace.overhead_frac.<workload>`.
pub fn run(
    seed: u64,
    seconds: f64,
    tsa: &Path,
    spans_out: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let solo_job = &inputs::jobs(&inputs::specs(Workload::SoloAlign, seed, 1), 1)[0];
    let mut layers = Layers {
        seed,
        job: solo_job,
        log: SpanLog::default(),
        tally: Tally::default(),
    };
    let mut out = Vec::new();
    core_layers(&mut layers, &mut out);
    let Layers {
        log: probe_log,
        mut tally,
        ..
    } = layers;

    let wire_log = SpanLog::default();
    let cluster_jobs = inputs::jobs(&inputs::specs(Workload::ClusterSmallRepeat, seed, 1), 1);
    wire_layers(seed, &wire_log, &mut tally, tsa, &cluster_jobs[0], &mut out)?;

    let quarter = seconds / 4.0;
    let mut logs = vec![("layers", probe_log), ("wire", wire_log)];
    for w in Workload::ALL {
        let jobs = inputs::jobs(
            &inputs::specs(w, seed, crate::job_count(w, quarter)),
            host::nproc(),
        );
        let log = SpanLog::default();
        let go = |log: Option<&SpanLog>| -> Result<E2e, String> {
            match w {
                Workload::SoloAlign => run::solo(&jobs, seed, quarter, log),
                Workload::BatchMixed => run::batch(&jobs, seed, quarter, log),
                Workload::ClusterSmallRepeat => run::cluster(&jobs, seed, quarter, log, tsa),
            }
        };
        // Untraced, traced, traced, untraced: a host that speeds up or
        // slows down across the four slices weighs on both arms alike.
        let (mut ok, mut secs) = ([0u64; 2], [0f64; 2]);
        let mut layer = Vec::new();
        for traced in [false, true, true, false] {
            let e2e = go(traced.then_some(&log))?;
            tally.merge(&e2e.tally);
            ok[usize::from(traced)] += e2e.tally.ok;
            secs[usize::from(traced)] += e2e.elapsed_s;
            if traced {
                layer = e2e.layer;
            }
        }
        out.push(Metric::new(
            format!("trace.overhead_frac.{}", w.name()),
            (ok[0] as f64 / secs[0]) / (ok[1] as f64 / secs[1]) - 1.0,
            "frac",
        ));
        if w == Workload::BatchMixed {
            out.extend([
                Metric::new(
                    "engine.submit_us.p50",
                    median_ms(&log, "engine.submit_blocking") * 1e3,
                    "us",
                ),
                Metric::new("engine.wait_ms.p50", median_ms(&log, "engine.wait"), "ms"),
                Metric::new(
                    "engine.overhead_ms.p50",
                    engine_overhead(&log, &jobs, &mut tally),
                    "ms",
                ),
            ]);
        }
        out.extend(layer);
        logs.push((w.name(), log));
    }
    write_spans(&logs, spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?;
    Ok((out, tally))
}

/// Write every span, tagged with the run it came from, and print each
/// span name's count, total and self time.
fn write_spans(logs: &[(&str, SpanLog)], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (run, log) in logs {
        let spans = log.spans();
        log.write_jsonl(&mut file, run)?;
        for (name, (count, total, own)) in trace::self_times(&spans) {
            eprintln!(
                "# spans {run}/{name}: n={count} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    file.flush()?;
    eprintln!("# spans written to {}", path.display());
    Ok(())
}
