//! End-to-end benchmark of the three-sequence aligner at default
//! settings. See `README.md` in this directory for the workloads, the
//! metrics and how each layer's numbers map onto the end-to-end ones.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench steady --workload <name> [--runs 5] [--seconds 20] [--first-seed 1]
//! ```
//!
//! A run prints the host, the plans `auto` resolves to, notes, and as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics of the workload with `--trace 0`,
//! every per-layer metric with `--trace 1`).

mod host;
mod inputs;
mod layers;
mod run;
mod stats;
mod steady;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use tsa_core::{aligner, score_only, Aligner};
use tsa_scoring::Scoring;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloAlign,
    BatchMixed,
    ClusterSmallRepeat,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SoloAlign,
        Workload::BatchMixed,
        Workload::ClusterSmallRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloAlign => "solo-align",
            Workload::BatchMixed => "batch-mixed",
            Workload::ClusterSmallRepeat => "cluster-small-repeat",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ancestor lengths of the workload's triples.
    fn lengths(self) -> &'static [usize] {
        match self {
            Workload::SoloAlign => &[inputs::SOLO_LEN],
            Workload::BatchMixed => &inputs::BATCH_LENS,
            Workload::ClusterSmallRepeat => &[inputs::CLUSTER_LEN],
        }
    }
}

/// Jobs generated (and reference-scored) for a run of `seconds`: two to
/// three times what the default plans complete on a 2-core host, so the
/// clients run for the whole window. A run whose clients use them all
/// ends early and says so.
pub fn job_count(w: Workload, seconds: f64) -> usize {
    let per_second = match w {
        Workload::SoloAlign => 5.0,
        Workload::BatchMixed => 20.0,
        Workload::ClusterSmallRepeat => 150.0,
    };
    (per_second * seconds).ceil().max(32.0) as usize
}

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The repository this benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// Build the `tsa` binary from the repository's sources (a no-op when
/// it is up to date) and return its path.
fn tsa_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tsa-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build -p tsa-cli: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p tsa-cli failed: {status}"));
    }
    Ok(target_dir().join("release").join("tsa"))
}

/// Cargo's target directory for builds started at the repository root.
fn target_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    repo_root().join(dir)
}

/// The plan `auto` resolves to per workload size, with its computed
/// memory.
fn plan_lines() -> Vec<String> {
    let auto = &Aligner::auto(Scoring::dna_default());
    Workload::ALL
        .iter()
        .flat_map(|w| {
            w.lengths().iter().map(move |&n| {
                let mib = |b: usize| b as f64 / (1 << 20) as f64;
                format!(
                    "# plan {} n={n}: {} (computed: lattice {:.1} MiB, slab faces {:.2} MiB, plane faces {:.2} MiB)",
                    w.name(),
                    auto.resolve(n, n, n).name(),
                    mib(aligner::lattice_bytes(n, n, n)),
                    mib(score_only::slab_memory_bytes(n, n)),
                    mib(score_only::plane_memory_bytes(n, n)),
                )
            })
        })
        .chain(std::iter::once(format!(
            "# plan kernel: auto -> {}",
            auto.kernel_choice().resolve().name()
        )))
        .collect()
}

fn result_line(correct: bool, tally: &stats::Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number ({})",
                m.name, m.value
            ));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted(),
        tally.not_ok(),
        body.join(", ")
    ))
}

/// Print the share of CPU time the hypervisor stole since `ticks`. Steal
/// slows every wall-clock metric of a run alike; the note tells a
/// contended run from a slower program.
fn print_steal(ticks: Option<(u64, u64)>) {
    if let Some(steal) = host::steal_frac(ticks, host::cpu_ticks()) {
        println!(
            "# host CPU time stolen by the hypervisor during the run: {:.1}%",
            100.0 * steal
        );
    }
}

fn bench(args: Args) -> Result<(), String> {
    println!("# host {}", host::describe());
    plan_lines().iter().for_each(|l| println!("{l}"));
    let w = args.workload;
    println!(
        "# run workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let needs_tsa = args.trace || w == Workload::ClusterSmallRepeat;
    let tsa = if needs_tsa { Some(tsa_binary()?) } else { None };
    let (metrics, tally) = if args.trace {
        let tsa = tsa.as_deref().expect("built above");
        let spans = target_dir().join("e2ebench").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        let ticks = host::cpu_ticks();
        let traced = layers::run(args.seed, args.seconds, tsa, &spans)?;
        print_steal(ticks);
        traced
    } else {
        let count = job_count(w, args.seconds);
        let jobs = inputs::jobs(&inputs::specs(w, args.seed, count), host::nproc());
        let ticks = host::cpu_ticks();
        let e2e = match w {
            Workload::SoloAlign => run::solo(&jobs, args.seed, args.seconds, None)?,
            Workload::BatchMixed => run::batch(&jobs, args.seed, args.seconds, None)?,
            Workload::ClusterSmallRepeat => run::cluster(
                &jobs,
                args.seed,
                args.seconds,
                None,
                tsa.as_deref().expect("built above"),
            )?,
        };
        print_steal(ticks);
        let (metrics, note) = e2e.metrics();
        println!("# {note}");
        if e2e.tally.attempted() as usize >= count {
            println!(
                "# all {count} generated jobs ran out after {:.2} s of the {} s window",
                e2e.elapsed_s, args.seconds
            );
        }
        (metrics, e2e.tally)
    };
    let correct = tally.not_ok() == 0 && tally.attempted() > 0;
    println!("{}", result_line(correct, &tally, &metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("steady") => steady::main(&argv[1..]),
        _ => parse_args(&argv).and_then(bench),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = stats::Tally::default();
        tally.add(&stats::Verdict::Ok);
        tally.add(&stats::Verdict::Refused("overloaded".into()));
        let line = result_line(false, &tally, &[Metric::new("jobs_per_s", 1.25, "1/s")]).unwrap();
        let v = tsa_service::json::Value::parse(&line).unwrap();
        let tsa_service::json::Value::Obj(fields) = &v else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
        assert!(result_line(true, &tally, &[Metric::new("x", f64::NAN, "ms")]).is_err());
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload batch-mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::BatchMixed, 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload solo-align --seed 3 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload solo-align --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload solo-align --seconds 10")).is_err());
    }
}
