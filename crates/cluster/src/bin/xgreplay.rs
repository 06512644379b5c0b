//! `xgreplay` — replay a recorded communication trace (from
//! `xgyro --trace FILE`) against a machine model, with optional injected
//! compute jitter, reporting makespan, wait time and the per-phase
//! breakdown.
//!
//! ```text
//! xgreplay --trace FILE [--machine FILE|PRESET] [--jitter-us N]
//! xgreplay --artifacts DIR --hash XGD1-HASH [--machine FILE|PRESET] [--jitter-us N]
//! ```
//!
//! The second form opens the trace straight out of an artifact store (the
//! directory `xgqueued --artifacts` publishes into): the deck hash names a
//! manifest, the manifest points at the trace blob, and replay proceeds on
//! those bytes — no intermediate CSV file needed.

use std::process::exit;
use xg_costmodel::{parse_machine, preset, MachineModel, Placement};

fn usage() -> ! {
    eprintln!(
        "usage: xgreplay --trace FILE [--machine FILE|PRESET] [--jitter-us N]\n\
         \u{20}      xgreplay --artifacts DIR --hash XGD1-HASH [--machine FILE|PRESET] \
         [--jitter-us N]"
    );
    exit(2)
}

/// Resolve the trace CSV for a deck hash from an artifact store: manifest
/// lookup, then the trace object it points at.
fn trace_from_store(dir: &str, hash: &str) -> String {
    let store = xg_artifact::ArtifactStore::open(dir).unwrap_or_else(|e| {
        eprintln!("xgreplay: cannot open artifact store {dir}: {e}");
        exit(1);
    });
    let hash: xg_artifact::DeckHash = hash.parse().unwrap_or_else(|e| {
        eprintln!("xgreplay: {e}");
        exit(1);
    });
    let manifest = store
        .lookup(hash)
        .unwrap_or_else(|e| {
            eprintln!("xgreplay: artifact lookup failed: {e}");
            exit(1);
        })
        .unwrap_or_else(|| {
            eprintln!("xgreplay: no manifest for {hash} in {dir}");
            exit(1);
        });
    let Some(trace_object) = manifest.trace_object else {
        eprintln!("xgreplay: manifest {hash} has no trace (run captured without tracing)");
        exit(1);
    };
    let bytes = store.get_object(trace_object).unwrap_or_else(|e| {
        eprintln!("xgreplay: cannot read trace object of {hash}: {e}");
        exit(1);
    });
    String::from_utf8(bytes).unwrap_or_else(|_| {
        eprintln!("xgreplay: trace object of {hash} is not valid UTF-8");
        exit(1);
    })
}

fn main() {
    let mut trace_path = None;
    let mut artifacts_dir: Option<String> = None;
    let mut hash: Option<String> = None;
    let mut machine: Option<MachineModel> = None;
    let mut jitter_us = 0.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(it.next().unwrap_or_else(|| usage())),
            "--artifacts" => artifacts_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--hash" => hash = Some(it.next().unwrap_or_else(|| usage())),
            "--machine" => {
                let v = it.next().unwrap_or_else(|| usage());
                machine = Some(match preset(&v) {
                    Some(m) => m,
                    None => {
                        let text = std::fs::read_to_string(&v).unwrap_or_else(|e| {
                            eprintln!("xgreplay: cannot read machine file {v}: {e}");
                            exit(1);
                        });
                        parse_machine(&text).unwrap_or_else(|e| {
                            eprintln!("xgreplay: {e}");
                            exit(1);
                        })
                    }
                });
            }
            "--jitter-us" => {
                jitter_us =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let text = match (trace_path, artifacts_dir, hash) {
        (Some(path), None, None) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("xgreplay: cannot read {path}: {e}");
            exit(1);
        }),
        (None, Some(dir), Some(h)) => trace_from_store(&dir, &h),
        _ => usage(),
    };
    let traces = xg_comm::traces_from_csv(&text).unwrap_or_else(|e| {
        eprintln!("xgreplay: {e}");
        exit(1);
    });
    let machine = machine.unwrap_or_else(MachineModel::frontier_like);
    let placement = Placement { ranks_per_node: machine.ranks_per_node };
    if let Some(line) = kernel_report(&text) {
        println!("{line}");
    }

    // Deterministic per-(rank, op) jitter in [0, jitter_us].
    let jitter = jitter_us * 1e-6;
    let compute = move |r: usize, i: usize| {
        let h = (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        jitter * u
    };

    match xg_cluster::replay(&traces, &machine, placement, compute) {
        Ok(out) => {
            println!(
                "replayed {} ranks on {}: makespan {:.3} ms, total wait {:.3} ms",
                traces.len(),
                machine.name,
                out.makespan() * 1e3,
                out.total_wait() * 1e3
            );
            println!("\nper-(phase, op) critical-path seconds:");
            for (phase, cat, secs) in out.breakdown.iter() {
                println!("  {phase:<8} {cat:<16} {:.6}", secs);
            }

            // Time-weighted phase summary from the measured elapsed_us
            // column (v2 traces recorded with timing on): where the
            // communication wall time actually went, vs. the modeled
            // critical path above.
            let mut rollup: Vec<(String, u64, u64, u64)> = Vec::new();
            for r in traces.iter().flatten() {
                match rollup.iter_mut().find(|(p, ..)| *p == r.phase) {
                    Some((_, ops, bytes, us)) => {
                        *ops += 1;
                        *bytes += r.bytes;
                        *us += r.elapsed_us;
                    }
                    None => rollup.push((r.phase.clone(), 1, r.bytes, r.elapsed_us)),
                }
            }
            rollup.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
            let measured_total: u64 = rollup.iter().map(|r| r.3).sum();
            if measured_total == 0 {
                println!(
                    "\nmeasured wait: none recorded (trace captured with XGYRO_OBS=0 \
                     or in the pre-timing format)"
                );
            } else {
                println!("\nmeasured wait by phase (all ranks, time-weighted):");
                println!("  phase       ops        bytes   wait(ms)  share");
                for (phase, ops, bytes, us) in &rollup {
                    println!(
                        "  {phase:<8} {ops:>6} {bytes:>12} {:>10.3} {:>5.1}%",
                        *us as f64 / 1e3,
                        100.0 * *us as f64 / measured_total as f64
                    );
                }
            }

            // str-phase reduction shape: fused runs show fewer, fatter
            // collectives (one packed AllReduce per RK stage) than unfused
            // ones, so calls and bytes/call make the algorithm visible
            // straight from the trace.
            let rank0 = traces.first().map(Vec::as_slice).unwrap_or(&[]);
            let str_reductions: Vec<_> = rank0
                .iter()
                .filter(|r| {
                    r.phase == "str"
                        && matches!(
                            r.op,
                            xg_comm::OpKind::AllReduce | xg_comm::OpKind::AllGather
                        )
                })
                .collect();
            if !str_reductions.is_empty() {
                let calls = str_reductions.len();
                let bytes: u64 = str_reductions.iter().map(|r| r.bytes).sum();
                println!(
                    "\nstr-phase reductions (rank 0): {calls} calls, {bytes} bytes, \
                     {:.0} bytes/call",
                    bytes as f64 / calls as f64
                );
            }
        }
        Err(e) => {
            eprintln!("xgreplay: {e}");
            exit(1);
        }
    }
}

/// The collision kernel recorded in the trace's `#kernel=` metadata
/// (written by `xgyro --trace`), with the capturing process's level cap
/// when recorded. Traces written before the tuner chose only a level carry
/// a `<level>/t<rows>` label and `#kernel_nv=`/`#kernel_k=` lines: the
/// label is printed as recorded and the shape lines are ignored.
fn kernel_report(text: &str) -> Option<String> {
    let meta = xg_comm::trace_meta(text);
    let get = |key: &str| meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let kernel = get("kernel")?;
    Some(format!(
        "collision kernel: {kernel} (measured on the capture host{})",
        get("simd_level").map(|l| format!(", probe {l}")).unwrap_or_default()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_with_the_old_kernel_header_still_replays() {
        // Header lines as `xgyro --trace` wrote them while the tuner also
        // picked a row-tile height.
        let rec = xg_comm::OpRecord {
            op: xg_comm::OpKind::AllReduce,
            comm_label: "nv".into(),
            phase: "str".into(),
            participants: 2,
            members: vec![0, 1],
            bytes: 128,
            elapsed_us: 3,
        };
        let text = xg_comm::traces_to_csv_with_meta(
            &[vec![rec.clone()], vec![rec]],
            &[("kernel", "avx512/t128"), ("kernel_nv", "144"), ("kernel_k", "4")],
        );
        assert_eq!(
            kernel_report(&text).as_deref(),
            Some("collision kernel: avx512/t128 (measured on the capture host)")
        );
        let traces = xg_comm::traces_from_csv(&text).unwrap();
        let machine = MachineModel::frontier_like();
        let placement = Placement { ranks_per_node: machine.ranks_per_node };
        assert!(xg_cluster::replay(&traces, &machine, placement, |_, _| 0.0).is_ok());
    }

    #[test]
    fn the_level_label_and_probe_are_reported() {
        let text = xg_comm::traces_to_csv_with_meta(
            &[],
            &[("kernel", "avx2"), ("simd_level", "avx512")],
        );
        assert_eq!(
            kernel_report(&text).as_deref(),
            Some("collision kernel: avx2 (measured on the capture host, probe avx512)")
        );
        assert_eq!(kernel_report(&xg_comm::traces_to_csv_with_meta(&[], &[])), None);
    }
}
