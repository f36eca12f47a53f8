//! Host and provenance, recorded with every result.

use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: &'static str,
    pub commit: String,
    /// Filesystem type under the run's output directory, where the job
    /// server's `state_dir` lives.
    pub state_fs: String,
}

impl Host {
    pub fn probe(out_dir: &Path) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            state_fs: fs_type(out_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"l2\":{},\"l3\":{},\"rustc\":{},\"commit\":{},\"state_dir_fs\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.l2),
            json_str(&self.l3),
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(&self.state_fs),
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Size of cpu0's unified or data cache at `level`, as the kernel reports it.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    (0..8)
        .map(|k| base.join(format!("index{k}")))
        .find(|dir| read(dir, "level") == level.to_string() && read(dir, "type") != "Instruction")
        .map_or("unknown".to_string(), |dir| read(&dir, "size"))
}

/// The commit checked out at `root`, read from `.git` without running git
/// (a copy of the tree that is not a repository reports `None`).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, r)| *r == reference)
        .map(|(id, _)| id.to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mountinfo
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount_point = fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fs = fields.get(sep + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}
