//! What the harness reads about its own process and host: CPU time,
//! peak memory, core count, toolchain and commit. Linux `/proc` only —
//! a reading that is unavailable comes back as `None`/"unknown" and the
//! metric built on it fails its check rather than reporting a guess.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI the toolchain targets; without libc there
/// is no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process has consumed, threads that
/// already exited included (agent threads end with their cluster, so a
/// per-thread reading would lose them).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may contain spaces; the
    // numbered fields resume after the closing parenthesis at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// `rustc --version`, or "unknown".
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or "unknown" outside a git work tree.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_sane_on_linux() {
        let before = cpu_seconds().expect("/proc/self/stat");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds().unwrap() >= before);
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
        assert!(host_cpus() >= 1);
    }
}
