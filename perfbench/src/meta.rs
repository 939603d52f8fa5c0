//! Run metadata: the host and build facts a performance figure needs to be
//! read (core count, CPU model, cache sizes, commit), plus peak memory.

use std::fs;
use std::path::Path;

/// Host facts recorded with every run.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string, if the platform reports one.
    pub cpu_model: String,
    /// Per-core L2 size as the kernel reports it (e.g. `1024K`).
    pub l2: String,
    /// Shared L3 size as the kernel reports it.
    pub l3: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Host {
    /// Probes the host. Missing facts read `unknown`.
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Host {
            nproc,
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            commit: commit(Path::new(".")).unwrap_or_else(unknown),
        }
    }

    /// JSON object of the host facts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"l2\": {:?}, \"l3\": {:?}, \"commit\": {:?}}}",
            self.nproc, self.cpu_model, self.l2, self.l3, self.commit
        )
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .find(|dir| {
            let read = |f: &str| fs::read_to_string(dir.join(f)).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() != "Instruction"
        })
        .and_then(|dir| fs::read_to_string(dir.join("size")).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(unknown)
}

/// The commit `HEAD` names in `root/.git`, without running git (the
/// benchmark reads nothing outside its checkout).
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
