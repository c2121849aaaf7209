//! The host a run was measured on, and process memory high-water marks.

use tsa_core::kernel::SimdKernel;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the host: thread count, CPU model, L2/L3 sizes and
/// what each SIMD kernel request resolves to on this CPU.
pub fn describe() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
                let kind = read("type")?;
                (read("level")?.trim() == level && kind.trim() != "Instruction")
                    .then(|| read("size"))
                    .flatten()
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    };
    let ladder: Vec<String> = [
        SimdKernel::Auto,
        SimdKernel::Scalar,
        SimdKernel::Sse2,
        SimdKernel::Avx2,
        SimdKernel::Sse2I16,
        SimdKernel::Avx2I16,
    ]
    .iter()
    .map(|k| format!("{}->{}", k.name(), k.resolve().name()))
    .collect();
    format!(
        "nproc={} cpu=\"{model}\" l2={} l3={} simd=[{}]",
        nproc(),
        cache("2"),
        cache("3"),
        ladder.join(" ")
    )
}

/// Cumulative (steal, total) CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor ran something else on this guest's
/// CPUs, out of all time. `None` without `/proc`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB; `None` when the
/// process is gone or the platform has no `/proc`.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
