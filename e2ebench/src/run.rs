//! The three end-to-end workloads, each a closed loop at default
//! settings: a client sends its next job only after the previous one
//! returned.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsa_core::{Aligner, Alignment3};
use tsa_scoring::Scoring;
use tsa_service::json::Value;
use tsa_service::{AlignRequest, Engine, JobOutcome, ServiceConfig, SubmitError};

use crate::inputs::{self, Job};
use crate::stats::{self, Tally, Verdict};
use crate::trace::{traced, SpanLog};
use crate::wire::{self, Server};
use crate::{host, Metric, Workload};

/// Times the system is set up per run; `setup_s` reports the median.
const SETUP_REPEATS: usize = 7;
/// Cluster spawns per run (each starts three processes).
const CLUSTER_SETUP_REPEATS: usize = 3;
/// Ancestor length of the warm-up triple used while setting up.
const WARMUP_LEN: usize = 16;

/// What one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct E2e {
    pub tally: Tally,
    /// Per attempted job, submit → result in ms; a job that did not end
    /// ok counts as the whole measured window (it missed any limit).
    pub latencies_ms: Vec<f64>,
    /// Wall seconds from the first submission to the last result.
    pub elapsed_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Layer facts only this workload can observe (cache and admission
    /// counters), reported by the traced run.
    pub layer: Vec<Metric>,
}

impl E2e {
    pub fn jobs_per_s(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed_s
    }

    /// The six end-to-end metrics, plus a note naming the tail
    /// percentile and its sample count.
    pub fn metrics(&self) -> (Vec<Metric>, String) {
        let p50 = stats::median(&self.latencies_ms).unwrap_or(0.0);
        let (tail, note) = match stats::tail(&self.latencies_ms) {
            Some(t) => (
                t.value,
                format!("latency_tail_ms is p{:.1} of {} samples", t.percentile, t.samples),
            ),
            None => (
                stats::sorted(&self.latencies_ms).last().copied().unwrap_or(0.0),
                format!(
                    "latency_tail_ms: only {} samples, no percentile has {} beyond it; reporting the maximum",
                    self.latencies_ms.len(),
                    stats::TAIL_BEYOND
                ),
            ),
        };
        let attempted = self.tally.attempted().max(1) as f64;
        let metrics = vec![
            Metric::new("jobs_per_s", self.jobs_per_s(), "1/s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_tail_ms", tail, "ms"),
            Metric::new("ok_frac", self.tally.ok as f64 / attempted, "frac"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ];
        (metrics, note)
    }
}

/// One job's record from a closed loop.
#[derive(Debug)]
pub struct Record<R> {
    pub index: usize,
    pub latency: Duration,
    pub result: R,
}

/// Drive `clients` closed-loop clients over job indices `0..jobs` until
/// `seconds` have passed or the jobs run out. Each client takes the next
/// unclaimed index only after its previous job returned; a job started
/// before the deadline runs to completion. Returns the records in index
/// order and the wall seconds until the last job returned.
pub fn closed_loop<C: Send, R: Send>(
    clients: Vec<C>,
    seconds: f64,
    jobs: usize,
    job: impl Fn(&mut C, usize) -> R + Sync,
) -> (Vec<Record<R>>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<Record<R>> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, job) = (&next, &job);
                s.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs {
                            break;
                        }
                        let t0 = Instant::now();
                        let result = job(&mut client, index);
                        out.push(Record {
                            index,
                            latency: t0.elapsed(),
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    records.sort_unstable_by_key(|r| r.index);
    (records, elapsed)
}

/// Turn records into the end-to-end tallies, printing every job that
/// did not end ok with its workload seed and index.
fn settle<R>(
    workload: Workload,
    seed: u64,
    records: &[Record<R>],
    elapsed_s: f64,
    verdict: impl Fn(&Record<R>) -> Verdict,
) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(records.len());
    for r in records {
        let v = verdict(r);
        tally.add(&v);
        if v == Verdict::Ok {
            latencies.push(r.latency.as_secs_f64() * 1e3);
        } else {
            eprintln!(
                "e2ebench: mismatch workload={} seed={seed} job={}: {v:?}",
                workload.name(),
                r.index
            );
            latencies.push(elapsed_s * 1e3);
        }
    }
    (tally, latencies)
}

/// Check an alignment against its job: the reported score must be the
/// reference, and its columns must spell the inputs and re-score to it.
pub fn check_alignment(aln: &Alignment3, job: &Job) -> Verdict {
    if aln.score != job.reference {
        return Verdict::Wrong(format!(
            "score {} != reference {}",
            aln.score, job.reference
        ));
    }
    match aln.validate_scored(&job.a, &job.b, &job.c, &Scoring::dna_default()) {
        Ok(()) => Verdict::Ok,
        Err(e) => Verdict::Wrong(format!("columns: {e}")),
    }
}

/// Check a score and, when the job asked for an alignment, its rows.
fn check_result(score: i32, rows: Option<[&str; 3]>, job: &Job) -> Verdict {
    if score != job.reference {
        return Verdict::Wrong(format!("score {score} != reference {}", job.reference));
    }
    match (job.score_only, rows) {
        (true, _) => Verdict::Ok,
        (false, None) => Verdict::Wrong("alignment requested, no rows returned".into()),
        (false, Some(rows)) => check_alignment(&rows_to_alignment(rows, score), job),
    }
}

fn rows_to_alignment(rows: [&str; 3], score: i32) -> Alignment3 {
    let cell = |r: &str, i: usize| match r.as_bytes().get(i) {
        None | Some(b'-') => None,
        Some(&b) => Some(b),
    };
    let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let columns = (0..width)
        .map(|i| [cell(rows[0], i), cell(rows[1], i), cell(rows[2], i)])
        .collect();
    Alignment3::new(columns, score)
}

/// Check what the engine returned for `job`.
pub fn check_outcome(outcome: &Result<JobOutcome, SubmitError>, job: &Job) -> Verdict {
    match outcome {
        Ok(JobOutcome::Done(res)) => {
            let rows = res
                .rows
                .as_ref()
                .map(|r| [r[0].as_str(), r[1].as_str(), r[2].as_str()]);
            check_result(res.score, rows, job)
        }
        Ok(other) => Verdict::Failed(other.label().into()),
        Err(e) => Verdict::Refused(e.to_string()),
    }
}

/// Median of `repeats` timings of `f`.
fn median_time(repeats: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = Instant::now();
        f()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(stats::median(&times).expect("at least one repeat"))
}

fn own_peak_rss() -> f64 {
    host::peak_rss_mib(std::process::id()).unwrap_or(0.0)
}

/// `solo-align`: one client calling `Aligner::auto(..).align3`, the
/// `tsa align` path, on a distinct triple per iteration.
pub fn solo(jobs: &[Job], seed: u64, seconds: f64, log: Option<&SpanLog>) -> Result<E2e, String> {
    let [wa, wb, wc] = inputs::triple(WARMUP_LEN, 0);
    // Set-up is what an aligning process pays before its first real job:
    // building the aligner and one small alignment through it.
    let setup_s = median_time(SETUP_REPEATS, || {
        let aligner = Aligner::auto(Scoring::dna_default());
        aligner
            .align3(&wa, &wb, &wc)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let aligner = Aligner::auto(Scoring::dna_default());
    let (records, elapsed_s) = closed_loop(vec![()], seconds, jobs.len(), |_, i| {
        let j = &jobs[i];
        traced(log, i as u64, 0, "job", |id| {
            traced(log, i as u64, id, "aligner.align3", |_| {
                aligner.align3(&j.a, &j.b, &j.c)
            })
        })
    });
    let (tally, latencies_ms) = settle(
        Workload::SoloAlign,
        seed,
        &records,
        elapsed_s,
        |r| match &r.result {
            Ok(aln) => check_alignment(aln, &jobs[r.index]),
            Err(e) => Verdict::Failed(e.to_string()),
        },
    );
    Ok(E2e {
        tally,
        latencies_ms,
        elapsed_s,
        setup_s,
        peak_rss_mb: own_peak_rss(),
        layer: Vec::new(),
    })
}

/// The engine request for `job`, tagged with its index.
pub fn request(job: &Job, index: usize) -> AlignRequest {
    AlignRequest::new(
        format!("j{index}"),
        job.a.clone(),
        job.b.clone(),
        job.c.clone(),
    )
    .score_only(job.score_only)
}

/// `batch-mixed`: closed-loop clients against one in-process engine
/// with default settings, through `submit_blocking` then `wait`.
pub fn batch(jobs: &[Job], seed: u64, seconds: f64, log: Option<&SpanLog>) -> Result<E2e, String> {
    let [wa, wb, wc] = inputs::triple(WARMUP_LEN, 0);
    let warmup = AlignRequest::new("warmup", wa, wb, wc);
    let start_engine = || -> Result<Engine, String> {
        let engine = Engine::start(ServiceConfig::default());
        let handle = engine
            .submit_blocking(warmup.clone())
            .map_err(|e| e.to_string())?;
        match handle.wait() {
            JobOutcome::Done(_) => Ok(engine),
            other => Err(format!("warm-up job ended {}", other.label())),
        }
    };
    // Set-up: engine start until a first job has gone through it.
    let setup_s = median_time(SETUP_REPEATS, || start_engine().map(|e| drop(e.shutdown())))?;
    let engine = start_engine()?;
    let before = engine.stats();
    let clients = host::nproc().clamp(1, 2);
    let (records, elapsed_s) = closed_loop(vec![(); clients], seconds, jobs.len(), |_, i| {
        let job = i as u64;
        traced(log, job, 0, "job", |id| {
            let handle = traced(log, job, id, "engine.submit_blocking", |_| {
                engine.submit_blocking(request(&jobs[i], i))
            })?;
            Ok::<_, SubmitError>(traced(log, job, id, "engine.wait", |_| handle.wait()))
        })
    });
    let after = engine.shutdown();
    let (tally, latencies_ms) = settle(Workload::BatchMixed, seed, &records, elapsed_s, |r| {
        check_outcome(&r.result, &jobs[r.index])
    });
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let submitted = (after.submitted - before.submitted).max(1) as f64;
    Ok(E2e {
        tally,
        latencies_ms,
        elapsed_s,
        setup_s,
        peak_rss_mb: own_peak_rss(),
        layer: vec![
            Metric::new(
                "engine.cache_hit_frac",
                hits / (hits + misses).max(1.0),
                "frac",
            ),
            Metric::new(
                "engine.rejected_frac",
                (after.rejected - before.rejected) as f64 / submitted,
                "frac",
            ),
        ],
    })
}

/// The wire line submitting `job` (tagged with its index).
pub fn submit_line(job: &Job, index: usize) -> String {
    let mut line = tsa_service::protocol::render_submit(&request(job, index))
        .expect("DNA-default requests always render");
    line.push('\n');
    line
}

/// Check one wire response against its job.
pub fn check_reply(reply: &str, job: &Job) -> Verdict {
    let v = match Value::parse(reply.trim()) {
        Ok(v) => v,
        Err(e) => return Verdict::Failed(format!("unparseable reply: {e}")),
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        return match error.as_str() {
            "overloaded" | "unavailable" | "resource_exhausted" => Verdict::Refused(error),
            _ => Verdict::Failed(error),
        };
    }
    let Some(score) = v.get("score").and_then(Value::as_i64) else {
        return Verdict::Failed(format!("no score in {}", reply.trim()));
    };
    let rows = match v.get("rows") {
        Some(Value::Arr(rows)) if rows.len() == 3 => {
            let r: Vec<&str> = rows.iter().filter_map(Value::as_str).collect();
            (r.len() == 3).then(|| [r[0], r[1], r[2]])
        }
        _ => None,
    };
    check_result(score as i32, rows, job)
}

/// Cache hit share from a `stats` reply, and that share over the
/// workload's repeat share (1.0: every repeat hit the shard caching it).
pub fn affinity(stats: &Value, repeat_frac: f64) -> Result<(f64, f64), String> {
    let field = |k: &str| {
        stats
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats reply has no `{k}`"))
    };
    let (hits, misses) = (field("cache_hits")? as f64, field("cache_misses")? as f64);
    let hit_frac = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let affinity = if repeat_frac > 0.0 {
        hit_frac / repeat_frac
    } else {
        0.0
    };
    Ok((hit_frac, affinity))
}

/// Spawn the default cluster the way a user starts it, and learn its
/// worker pids (for memory readings and clean-up).
pub fn spawn_cluster(tsa: &Path) -> Result<Server, String> {
    let mut server = Server::spawn(
        tsa,
        &["cluster", "--workers", "2", "--listen", "127.0.0.1:0"],
        "# tsa cluster: listening on ",
    )?;
    match server
        .connect()
        .and_then(|mut c| c.op("{\"op\":\"stats\"}\n"))
    {
        Ok(stats) => {
            server.worker_pids = wire::shard_pids(&stats);
            Ok(server)
        }
        Err(e) => {
            // Without the pids only a graceful shutdown stops the workers.
            let _ = server.shutdown();
            Err(format!("cluster stats: {e}"))
        }
    }
}

/// `cluster-small-repeat`: closed-loop TCP connections to the front door
/// of a default two-worker `tsa cluster`.
pub fn cluster(
    jobs: &[Job],
    seed: u64,
    seconds: f64,
    log: Option<&SpanLog>,
    tsa: &Path,
) -> Result<E2e, String> {
    let mut spawns = Vec::with_capacity(CLUSTER_SETUP_REPEATS);
    for _ in 1..CLUSTER_SETUP_REPEATS {
        let s = spawn_cluster(tsa)?;
        spawns.push(s.ready_s);
        s.shutdown()?;
    }
    let server = spawn_cluster(tsa)?;
    spawns.push(server.ready_s);
    let setup_s = stats::median(&spawns).expect("at least one spawn");
    let lines: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| submit_line(j, i))
        .collect();
    let clients = (0..host::nproc().clamp(1, 2))
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (records, elapsed_s) = closed_loop(clients, seconds, jobs.len(), |conn, i| {
        traced(log, i as u64, 0, "job", |id| {
            traced(log, i as u64, id, "wire.roundtrip", |_| {
                conn.call(&lines[i])
            })
        })
    });
    let stats = server.connect()?.op("{\"op\":\"stats\"}\n")?;
    let peak_rss_mb = std::iter::once(server.pid())
        .chain(server.worker_pids.iter().copied())
        .filter_map(host::peak_rss_mib)
        .sum();
    server.shutdown()?;
    let (tally, latencies_ms) = settle(
        Workload::ClusterSmallRepeat,
        seed,
        &records,
        elapsed_s,
        |r| match &r.result {
            Ok(reply) => check_reply(reply, &jobs[r.index]),
            Err(e) => Verdict::Failed(e.to_string()),
        },
    );
    let repeats = records.iter().filter(|r| jobs[r.index].repeat).count();
    let repeat_frac = repeats as f64 / records.len().max(1) as f64;
    let (hit_frac, affinity) = affinity(&stats, repeat_frac)?;
    Ok(E2e {
        tally,
        latencies_ms,
        elapsed_s,
        setup_s,
        peak_rss_mb,
        layer: vec![
            Metric::new("cluster.cache_hit_frac", hit_frac, "frac"),
            Metric::new("cluster.affinity", affinity, "ratio"),
            Metric::new("cluster.spawn_s", setup_s, "s"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{jobs, specs};

    #[test]
    fn closed_loop_accounts_for_every_attempt() {
        let (records, elapsed) = closed_loop(vec![(), ()], 60.0, 300, |_, i| match i % 3 {
            0 => Verdict::Ok,
            1 => Verdict::Refused("overloaded".into()),
            _ => Verdict::Failed("deadline".into()),
        });
        assert!(elapsed > 0.0);
        let indices: Vec<usize> = records.iter().map(|r| r.index).collect();
        assert_eq!(
            indices,
            (0..300).collect::<Vec<_>>(),
            "each index once, in order"
        );
        let (tally, latencies) = settle(Workload::BatchMixed, 1, &records, elapsed, |r| {
            r.result.clone()
        });
        assert_eq!(
            tally.ok + tally.failed + tally.refused + tally.wrong,
            tally.attempted()
        );
        assert_eq!(tally.attempted(), 300);
        assert_eq!((tally.ok, tally.refused, tally.failed), (100, 100, 100));
        assert_eq!(latencies.len(), 300);
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let (records, elapsed) = closed_loop(vec![()], 0.05, usize::MAX, |_, _| {
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!((1..=5).contains(&records.len()), "{}", records.len());
        assert!(elapsed >= 0.05);
    }

    #[test]
    fn affinity_from_a_hand_built_stats_line() {
        let line = r#"{"ok":true,"op":"stats","scope":"cluster","coordinator":{"workers":2},
            "submitted":400,"completed":400,"cache_hits":270,"cache_misses":130,
            "shards":[{"shard":0,"pid":11,"cache_hits":140,"cache_misses":60},
                      {"shard":1,"pid":12,"cache_hits":130,"cache_misses":70}]}"#;
        let stats = Value::parse(&line.replace('\n', " ")).unwrap();
        let (hit_frac, affinity) = affinity(&stats, 0.75).unwrap();
        assert!((hit_frac - 270.0 / 400.0).abs() < 1e-12);
        assert!((affinity - 0.9).abs() < 1e-12);
        assert_eq!(wire::shard_pids(&stats), vec![11, 12]);
        assert!(super::affinity(&Value::parse("{}").unwrap(), 0.75).is_err());
    }

    #[test]
    fn replies_are_checked_against_the_reference() {
        let job = &jobs(&specs(Workload::ClusterSmallRepeat, 2, 1), 1)[0];
        let aln = Aligner::auto(Scoring::dna_default())
            .align3(&job.a, &job.b, &job.c)
            .unwrap();
        let rows = aln.pretty();
        let rows: Vec<&str> = rows.lines().collect();
        let reply = |score: i32| {
            format!(
                r#"{{"ok":true,"id":"j0","status":"done","score":{score},"rows":["{}","{}","{}"]}}"#,
                rows[0], rows[1], rows[2]
            )
        };
        assert_eq!(check_reply(&reply(job.reference), job), Verdict::Ok);
        assert!(matches!(
            check_reply(&reply(job.reference + 1), job),
            Verdict::Wrong(_)
        ));
        let no_rows = format!(r#"{{"ok":true,"status":"done","score":{}}}"#, job.reference);
        assert!(matches!(check_reply(&no_rows, job), Verdict::Wrong(_)));
        let shed = r#"{"ok":false,"id":"j0","error":"overloaded"}"#;
        assert!(matches!(check_reply(shed, job), Verdict::Refused(_)));
    }
}
