//! What the numbers were measured on, and the process's own memory.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Every result is produced against the stand-in crates under
/// `benchmark/stubs/`; there is no registry build to compare with.
pub const HARNESS: &str = "offline-stand-ins";

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A field of `/proc/self/status` given in kB (`VmHWM`, `VmRSS`), in MiB.
fn status_kb_as_mib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB. Each
/// workload runs in a process of its own, so this is the workload's.
pub fn peak_rss_mib() -> f64 {
    status_kb_as_mib("VmHWM:").unwrap_or(0.0)
}

/// Filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_dev, mount, fstype) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Where traces and state directories go: `benchmark/out/`. The
/// benchmark is started from the repository root (`cargo run
/// --manifest-path benchmark/Cargo.toml`) or, by `cargo test`, from
/// `benchmark/` itself.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark").join("Cargo.toml").is_file() {
        PathBuf::from("benchmark").join("out")
    } else {
        PathBuf::from("out")
    }
}

/// A fresh, empty directory for one workload's durable state, inside
/// [`out_dir`] (the benchmark writes nowhere else).
pub fn fresh_state_dir(tag: &str) -> std::io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "state-{}-{}-{}",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The environment stamp written into every result file.
pub fn stamp(seed: u64, seconds: f64, quick: bool) -> Json {
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    Json::obj([
        ("harness", Json::str(HARNESS)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        (
            "rustc",
            Json::str(first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            Json::str(
                first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("state_dir_filesystem", Json::str(filesystem_of(&out))),
        (
            "caveat",
            Json::str(
                "loopback and fsync latencies are this sandbox's (virtual NIC, page cache), \
                 not a device's; compare runs made on one machine only",
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_harness_and_the_machine() {
        let s = stamp(42, 1.0, true);
        assert_eq!(s.get("harness").and_then(Json::as_str), Some(HARNESS));
        assert!(s.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(s.get("seed").and_then(Json::as_f64), Some(42.0));
        for key in [
            "cpu_model",
            "rustc",
            "profile",
            "git_commit",
            "state_dir_filesystem",
        ] {
            assert!(
                !s.get(key).and_then(Json::as_str).unwrap().is_empty(),
                "{key} is empty"
            );
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn state_dirs_are_fresh_and_distinct() {
        let a = fresh_state_dir("t").unwrap();
        let b = fresh_state_dir("t").unwrap();
        assert_ne!(a, b);
        assert!(a.is_dir() && std::fs::read_dir(&a).unwrap().next().is_none());
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }
}
