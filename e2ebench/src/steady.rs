//! Steadiness self-check: rerun one workload with several seeds and
//! print each end-to-end metric's run-to-run spread (interquartile range
//! over median, as `statistics.quantiles(values, n=4)` gives the
//! quartiles) next to the bound `BENCHMARK.json` fixes for it.

use std::process::Command;

use tsa_service::json::Value;

use crate::stats;

fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            match m.get("bound")? {
                Value::Num(b) => Some((name, *b)),
                _ => None,
            }
        })
        .collect())
}

pub fn main(argv: &[String]) -> Result<(), String> {
    let (mut workload, mut runs, mut seconds, mut first_seed) =
        (None, 5u64, "20".to_string(), 1u64);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--runs" => runs = value.parse().map_err(|_| format!("bad --runs `{value}`"))?,
            "--seconds" => seconds = value.clone(),
            "--first-seed" => {
                first_seed = value
                    .parse()
                    .map_err(|_| format!("bad --first-seed `{value}`"))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, Vec<f64>)> = bounds
        .iter()
        .map(|(n, _)| (n.clone(), Vec::new()))
        .collect();
    for seed in first_seed..first_seed + runs {
        let out = Command::new(&exe)
            .args([
                "--workload",
                &workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            Value::parse(last).map_err(|e| format!("seed {seed}: no result line ({e}): {last}"))?;
        if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("seed {seed}: run failed or incorrect: {last}"));
        }
        let mut row = format!("seed {seed}:");
        for (name, vals) in values.iter_mut() {
            if let Some(Value::Num(v)) = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
            {
                vals.push(*v);
                row.push_str(&format!(" {name}={v:.4}"));
            }
        }
        let steal = stdout.lines().find_map(|l| {
            l.strip_prefix("# host CPU time stolen by the hypervisor during the run: ")
        });
        println!("{row} steal={}", steal.unwrap_or("?"));
    }
    println!(
        "{:<18} {:>12} {:>9} {:>7} {:>9}",
        "metric", "median", "spread", "bound", "spread/b"
    );
    for ((name, vals), (_, bound)) in values.iter().zip(&bounds) {
        let (Some(med), Some(spread)) = (stats::median(vals), stats::spread(vals)) else {
            continue;
        };
        println!(
            "{name:<18} {med:>12.4} {spread:>9.4} {bound:>7.3} {:>9.2}",
            spread / bound
        );
    }
    Ok(())
}
