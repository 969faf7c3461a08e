//! `eim top` — a terminal dashboard over the metrics snapshot stream.
//!
//! Consumes the JSONL stream a run writes via `--snapshot-stream` (see
//! `eim-metrics::snapshot`) and renders the registry state as a compact
//! frame: per-kernel occupancy/divergence, per-direction PCIe bandwidth
//! utilisation, device-memory high-water and RRR-store residency, recovery
//! and eviction counters, and streaming invalidation rates.
//!
//! Three consumption modes:
//!
//! * `--replay <file>` — fold the whole recorded stream and show the final
//!   frame;
//! * `--replay <file> --follow` — tail a stream that is still being written
//!   (a live run), redrawing as records arrive, until the final record;
//! * `--once --plain` — a single deterministic ANSI-free frame for CI
//!   byte-comparison: the frame is a pure function of the stream content.
//!
//! `--check` additionally verifies the reconciliation invariant: the summed
//! interval deltas must hash to the digest the final record embedded.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eim_metrics::{FlatHistogram, SnapshotAccumulator};

/// Unicode block ramp for the utilisation sparklines.
const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// One-character-per-bucket sparkline; empty buckets render as spaces so the
/// shape of the distribution reads at a glance.
fn sparkline(counts: &[u64]) -> String {
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                '·'
            } else {
                BARS[((c as f64 / max as f64) * 7.0).round().min(7.0) as usize]
            }
        })
        .collect()
}

/// Splits a rendered series key (`name{k="v",...}`) into its name and label
/// map. Label values in this workspace never contain commas or quotes, so a
/// structural split is sufficient.
fn parse_series(key: &str) -> (&str, BTreeMap<&str, &str>) {
    let Some((name, rest)) = key.split_once('{') else {
        return (key, BTreeMap::new());
    };
    let body = rest.strip_suffix('}').unwrap_or(rest);
    let mut labels = BTreeMap::new();
    for part in body.split("\",") {
        let part = part.trim_end_matches('"');
        if let Some((k, v)) = part.split_once("=\"") {
            labels.insert(k, v);
        }
    }
    (name, labels)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Sums every series of counter `name`, regardless of labels.
fn counter_sum(acc: &SnapshotAccumulator, name: &str) -> u64 {
    acc.flat
        .counters
        .iter()
        .filter(|(k, _)| parse_series(k).0 == name)
        .map(|(_, &v)| v)
        .sum()
}

/// Sums counter `name` grouped by one label's value.
fn counter_by_label(acc: &SnapshotAccumulator, name: &str, label: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (k, &v) in &acc.flat.counters {
        let (n, labels) = parse_series(k);
        if n == name {
            let key = labels.get(label).copied().unwrap_or("-").to_string();
            *out.entry(key).or_insert(0) += v;
        }
    }
    out
}

/// Largest value across every series of gauge `name`.
fn gauge_max(acc: &SnapshotAccumulator, name: &str) -> u64 {
    acc.flat
        .gauges
        .iter()
        .filter(|(k, _)| parse_series(k).0 == name)
        .map(|(_, &v)| v)
        .max()
        .unwrap_or(0)
}

/// Renders the dashboard frame from the accumulated stream state. Pure and
/// deterministic: the same stream always renders the same bytes (the
/// contract behind `--once --plain` byte-comparison in CI).
pub fn render_frame(acc: &SnapshotAccumulator) -> String {
    let mut out = String::new();
    let w = |s: &mut String, line: String| {
        let _ = writeln!(s, "{line}");
    };

    w(
        &mut out,
        format!(
            "eim top — snapshot stream   phase {:<13}  t = {:>12} µs   records {}{}",
            if acc.last_phase.is_empty() {
                "-"
            } else {
                &acc.last_phase
            },
            acc.last_ts_us,
            acc.records,
            if acc.final_digest.is_some() {
                "   [run complete]"
            } else {
                "   [in flight]"
            }
        ),
    );
    if let Some(h) = &acc.header {
        let p = &h["provenance"];
        let field = |key: &str| p[key].as_str().unwrap_or("-").to_string();
        let seed = p["seed"]
            .as_u64()
            .map(|s| s.to_string())
            .unwrap_or_else(|| "-".into());
        w(
            &mut out,
            format!(
                "provenance: {} | dataset {} | seed {} | git {} | interval {} µs",
                field("toolchain"),
                field("dataset"),
                seed,
                field("git"),
                h["interval_us"].as_u64().unwrap_or(0)
            ),
        );
    }
    w(&mut out, String::new());

    // --- kernels: occupancy / divergence, ranked by simulated time -------
    w(&mut out, "KERNELS (top 12 by simulated time)".into());
    w(
        &mut out,
        format!(
            "  {:<9} {:>3}  {:<28} {:>9} {:>8} {:>7} {:>7} {:>10}",
            "engine", "dev", "kernel", "launches", "sim ms", "occ%", "div%", "mem GB/s"
        ),
    );
    let mut kernels: Vec<_> = acc.flat.kernels.values().collect();
    kernels.sort_by(|a, b| {
        b.sim_us
            .partial_cmp(&a.sim_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (&a.engine, a.device, &a.kernel).cmp(&(&b.engine, b.device, &b.kernel)))
    });
    if kernels.is_empty() {
        w(&mut out, "  (no kernel activity yet)".into());
    }
    for k in kernels.iter().take(12) {
        w(
            &mut out,
            format!(
                "  {:<9} {:>3}  {:<28} {:>9} {:>8.1} {:>7.2} {:>7.2} {:>10.2}",
                k.engine,
                k.device,
                k.kernel,
                k.launches,
                k.sim_us / 1000.0,
                k.occupancy_pct(),
                k.divergence_pct(),
                k.mem_gbps()
            ),
        );
    }
    w(&mut out, String::new());

    // --- PCIe: per-direction counters + utilisation distribution ---------
    w(&mut out, "PCIe BANDWIDTH (achieved / modelled peak)".into());
    w(
        &mut out,
        format!(
            "  {:<4} {:<6} {:>9} {:>10} {:>10}   {}",
            "dir", "mode", "transfers", "MiB", "mean util", "utilisation histogram"
        ),
    );
    // Group histograms by (dir, mode); phases and devices fold together.
    let mut pcie: BTreeMap<(String, String), FlatHistogram> = BTreeMap::new();
    for (k, h) in &acc.flat.histograms {
        let (name, labels) = parse_series(k);
        if name != "eim_transfer_bandwidth_utilization" {
            continue;
        }
        let key = (
            labels.get("dir").copied().unwrap_or("-").to_string(),
            labels.get("mode").copied().unwrap_or("-").to_string(),
        );
        let e = pcie.entry(key).or_default();
        if e.counts.len() < h.counts.len() {
            e.counts.resize(h.counts.len(), 0);
        }
        for (i, &c) in h.counts.iter().enumerate() {
            e.counts[i] += c;
        }
        e.count += h.count;
        e.sum += h.sum;
    }
    let bytes_by_dir = counter_by_label(acc, "eim_transfer_bytes_total", "dir");
    if pcie.is_empty() {
        w(&mut out, "  (no transfers yet)".into());
    }
    for ((dir, mode), h) in &pcie {
        let mean = if h.count > 0 {
            h.sum / h.count as f64
        } else {
            0.0
        };
        w(
            &mut out,
            format!(
                "  {:<4} {:<6} {:>9} {:>10.1} {:>10.2}   {}",
                dir,
                mode,
                h.count,
                mib(bytes_by_dir.get(dir).copied().unwrap_or(0)),
                mean,
                sparkline(&h.counts)
            ),
        );
    }
    w(&mut out, String::new());

    // --- memory: high-water + store residency -----------------------------
    let peak = gauge_max(acc, "eim_device_mem_peak_bytes");
    let store = gauge_max(acc, "eim_rrr_store_bytes");
    let alloc_fail = counter_sum(acc, "eim_device_alloc_failures_total");
    w(&mut out, "DEVICE MEMORY".into());
    let mem = format!(
        "  high-water {:.1} MiB   rrr store {:.1} MiB   alloc failures {}",
        mib(peak),
        mib(store),
        alloc_fail
    );
    w(&mut out, mem);
    w(&mut out, String::new());

    // --- recovery / eviction ----------------------------------------------
    w(&mut out, "RECOVERY / EVICTION".into());
    w(
        &mut out,
        format!(
            "  retries {}   batch splits {}   checkpoints {}   resumes {}   device failures {}   redistributed sets {}",
            counter_sum(acc, "eim_recovery_retries_total"),
            counter_sum(acc, "eim_recovery_batch_splits_total"),
            counter_sum(acc, "eim_checkpoints_written_total"),
            counter_sum(acc, "eim_resumes_total"),
            counter_sum(acc, "eim_device_failures_total"),
            counter_sum(acc, "eim_redistributed_sets_total"),
        ),
    );
    let actions = counter_by_label(acc, "eim_recovery_actions_total", "action");
    if !actions.is_empty() {
        let list: Vec<String> = actions.iter().map(|(k, v)| format!("{k} {v}")).collect();
        w(&mut out, format!("  actions: {}", list.join(", ")));
    }
    let by_phase = counter_by_label(acc, "eim_recovery_actions_total", "phase");
    if by_phase.keys().any(|k| k != "-") {
        let list: Vec<String> = by_phase.iter().map(|(k, v)| format!("{k} {v}")).collect();
        w(&mut out, format!("  by phase: {}", list.join(", ")));
    }
    w(&mut out, String::new());

    // --- streaming invalidation -------------------------------------------
    let batches = counter_sum(acc, "eim_stream_batches_total");
    if batches > 0 {
        let invalidated = counter_sum(acc, "eim_stream_invalidated_slots_total");
        let fresh = counter_sum(acc, "eim_stream_fresh_sets_total");
        let heads = counter_sum(acc, "eim_stream_changed_heads_total");
        w(&mut out, "STREAMING UPDATES".into());
        w(
            &mut out,
            format!(
                "  batches {}   invalidated slots {} ({:.1}/batch)   fresh sets {}   changed heads {}",
                batches,
                invalidated,
                invalidated as f64 / batches as f64,
                fresh,
                heads
            ),
        );
        w(&mut out, String::new());
    }
    out
}

struct TopArgs {
    replay: Option<String>,
    follow: bool,
    once: bool,
    plain: bool,
    check: bool,
    poll_ms: u64,
}

fn top_usage() -> i32 {
    eprintln!(
        "usage: eim top --replay <file.jsonl> [--follow] [--once] [--plain] [--check] \
         [--poll-ms n]"
    );
    2
}

fn read_stream(path: &str) -> Result<(SnapshotAccumulator, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut acc = SnapshotAccumulator::new();
    for line in text.lines() {
        acc.push_line(line)?;
    }
    Ok((acc, text.len() as u64))
}

/// Entry point for the `top` subcommand; returns the process exit code.
pub fn run_from_args(args: &[String]) -> i32 {
    let mut a = TopArgs {
        replay: None,
        follow: false,
        once: false,
        plain: false,
        check: false,
        poll_ms: 250,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--replay" => match it.next() {
                Some(p) => a.replay = Some(p.clone()),
                None => return top_usage(),
            },
            "--follow" => a.follow = true,
            "--once" => a.once = true,
            "--plain" => a.plain = true,
            "--check" => a.check = true,
            "--poll-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => a.poll_ms = ms,
                None => return top_usage(),
            },
            other if a.replay.is_none() && !other.starts_with('-') => {
                a.replay = Some(other.to_string())
            }
            _ => return top_usage(),
        }
    }
    let Some(path) = a.replay.clone() else {
        return top_usage();
    };

    if a.follow && !a.once {
        // Tail mode: re-fold the stream each poll (streams are small — one
        // record per interval) and redraw until the final record lands.
        let mut last_len = u64::MAX;
        loop {
            match read_stream(&path) {
                Ok((acc, len)) => {
                    if len != last_len {
                        last_len = len;
                        if a.plain {
                            print!("{}", render_frame(&acc));
                            println!("---");
                        } else {
                            // Clear + home, then the frame.
                            print!("\x1b[2J\x1b[1;1H{}", render_frame(&acc));
                        }
                        use std::io::Write as _;
                        let _ = std::io::stdout().flush();
                    }
                    if acc.final_digest.is_some() {
                        return finish(&acc, a.check);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(a.poll_ms));
        }
    }

    match read_stream(&path) {
        Ok((acc, _)) => {
            if a.plain {
                print!("{}", render_frame(&acc));
            } else {
                print!("\x1b[2J\x1b[1;1H{}", render_frame(&acc));
            }
            finish(&acc, a.check)
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn finish(acc: &SnapshotAccumulator, check: bool) -> i32 {
    if !check {
        return 0;
    }
    match acc.reconcile() {
        Ok(digest) => {
            println!("reconciliation OK: cumulative fnv64 {digest}");
            0
        }
        Err(e) => {
            eprintln!("reconciliation FAILED: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes_are_stable() {
        assert_eq!(sparkline(&[0, 0, 0]), "···");
        assert_eq!(sparkline(&[1, 4, 8]), "▂▅█");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn series_keys_parse_names_and_labels() {
        let (name, labels) = parse_series(
            "eim_transfers_total{device=\"0\",dir=\"h2d\",engine=\"eim\",phase=\"sample\"}",
        );
        assert_eq!(name, "eim_transfers_total");
        assert_eq!(labels.get("dir"), Some(&"h2d"));
        assert_eq!(labels.get("phase"), Some(&"sample"));
        let (bare, empty) = parse_series("eim_resumes_total");
        assert_eq!(bare, "eim_resumes_total");
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_stream_renders_placeholders() {
        let acc = SnapshotAccumulator::new();
        let frame = render_frame(&acc);
        assert!(frame.contains("no kernel activity"));
        assert!(frame.contains("no transfers"));
        assert_eq!(frame, render_frame(&acc));
    }
}
