//! Provenance of a result record: which source tree and which machine
//! produced it, so records from different hosts or revisions are never read
//! as one series.

use std::path::Path;
use std::process::Command;

use serde_json::{Map, Value};

/// FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Regular files under `dir`, recursively, sorted.
fn files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => files_under(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// FNV-1a over the paths and contents of the sources the benchmark builds
/// from. It identifies the revision where no git metadata is present.
fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        files_under(Path::new(dir), &mut files);
    }
    files.extend(
        ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
            .iter()
            .map(Into::into),
    );
    files.sort();
    let mut h = FNV_OFFSET;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h = fnv1a(h, f.to_string_lossy().as_bytes());
            h = fnv1a(h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// Runs `git` in the working directory only: the ceiling stops it from
/// picking up a repository that merely encloses the checkout.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    cmd.args(args);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.env("GIT_CONFIG_NOSYSTEM", "1")
        .env("GIT_CONFIG_GLOBAL", "/dev/null");
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn first_line_with(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// Kernel-reported peak resident set (`VmHWM`) of this process, bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let kb: u64 = first_line_with("/proc/self/status", "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The provenance block: git revision and dirty flag (null outside a git
/// work tree), a digest of the built sources, logical CPUs, rayon pool
/// size, CPU model and OS.
pub fn provenance() -> Value {
    let mut m = Map::new();
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    m.insert("git", rev);
    m.insert("git_dirty", dirty);
    m.insert("source_fnv", source_digest());
    m.insert(
        "logical_cpus",
        std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .ok(),
    );
    m.insert("rayon_threads", rayon::current_num_threads() as u64);
    m.insert("cpu_model", first_line_with("/proc/cpuinfo", "model name"));
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    m.insert(
        "os",
        format!(
            "{} {} {release}",
            std::env::consts::OS,
            std::env::consts::ARCH
        ),
    );
    Value::Object(m)
}
