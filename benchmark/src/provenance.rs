//! Where a result came from: enough to tell two result files apart and to
//! know whether they may be compared.

use crate::json::{self, Json};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

pub struct Stamp {
    seed: u64,
    started: Instant,
    started_unix_s: u64,
}

pub struct Provenance {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// The collision kernel the autotuner chose in this process.
    pub collision_kernel: String,
    /// Every `XGYRO_*` variable in the environment. The end-to-end pass is
    /// meant to run with none: product defaults, no knobs.
    pub xgyro_env: Vec<(String, String)>,
    pub seed: u64,
    pub command: Vec<String>,
    pub started_at: String,
    pub duration_ms: u64,
}

impl Stamp {
    pub fn begin(seed: u64) -> Self {
        let started_unix_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Stamp {
            seed,
            started: Instant::now(),
            started_unix_s,
        }
    }

    pub fn finish(self) -> Provenance {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut xgyro_env: Vec<_> = std::env::vars()
            .filter(|(k, _)| k.starts_with("XGYRO_"))
            .collect();
        xgyro_env.sort();
        Provenance {
            git_sha: git_sha(&repo).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
            collision_kernel: xg_obs::Registry::global()
                .collision_kernel()
                .unwrap_or_else(|| "none".into()),
            xgyro_env,
            seed: self.seed,
            command: std::env::args().collect(),
            started_at: iso_utc(self.started_unix_s),
            duration_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

impl Provenance {
    pub fn to_json(&self) -> Json {
        json::obj([
            ("git_sha", json::text(&self.git_sha)),
            ("nproc", json::num(self.nproc as f64)),
            ("cpu_model", json::text(&self.cpu_model)),
            ("rustc", json::text(&self.rustc)),
            ("collision_kernel", json::text(&self.collision_kernel)),
            (
                "xgyro_env",
                Json::Obj(
                    self.xgyro_env
                        .iter()
                        .map(|(k, v)| (k.clone(), json::text(v)))
                        .collect(),
                ),
            ),
            ("seed", json::num(self.seed as f64)),
            (
                "command",
                Json::Arr(self.command.iter().map(|a| json::text(a)).collect()),
            ),
            ("started_at", json::text(&self.started_at)),
            ("duration_ms", json::num(self.duration_ms as f64)),
        ])
    }
}

/// The checked-out commit, read from `.git` directly (no process, and no
/// walk out of the checkout). A checkout that is not a repository has none.
fn git_sha(repo: &Path) -> Option<String> {
    let head = std::fs::read_to_string(repo.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(repo.join(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Seconds since the epoch as `YYYY-MM-DDTHH:MM:SSZ`.
fn iso_utc(unix_s: u64) -> String {
    let (days, rem) = (unix_s / 86_400, unix_s % 86_400);
    // Civil date from a day count (Howard Hinnant's algorithm).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_dates() {
        assert_eq!(iso_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso_utc(1_790_521_445), "2026-09-27T15:04:05Z");
    }
}
