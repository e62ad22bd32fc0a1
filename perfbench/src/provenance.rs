//! Where a record came from, and the trajectory file it is appended to.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::outcome::{Metric, Outcome};
use crate::stats::level_name;
use crate::RunConfig;

pub struct Provenance {
    pub command: String,
    pub available_parallelism: usize,
    pub git_revision: String,
    pub unix_time: u64,
}

impl Provenance {
    pub fn collect(command: String) -> Self {
        let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        Self {
            command,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_revision: git_revision(&repo.join(".git")).unwrap_or_else(|| "unknown".into()),
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "provenance: revision {} | available_parallelism {} | command `{}`",
            self.git_revision, self.available_parallelism, self.command
        )
    }

    pub fn json(&self, cfg: &RunConfig) -> Json {
        Json::obj([
            ("git_revision", Json::str(self.git_revision.clone())),
            (
                "available_parallelism",
                Json::int(self.available_parallelism),
            ),
            ("command", Json::str(self.command.clone())),
            ("seed", Json::Int(cfg.seed as i64)),
            ("seconds", Json::Num(cfg.seconds)),
            ("unix_time", Json::Int(self.unix_time as i64)),
        ])
    }
}

/// The checked-out commit, read from the `.git` directory without running
/// git.  `None` outside a git checkout.
pub fn git_revision(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// An outcome with every metric's summary, for the trajectory record.
pub fn outcome_json(o: &Outcome) -> Json {
    let metrics = |list: &[Metric]| {
        Json::obj(list.iter().map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::str(m.unit)),
            ];
            if let Some(s) = &m.detail {
                fields.push(("n".into(), Json::int(s.n)));
                if let Some((p, v)) = s.tail {
                    fields.push((level_name(p), Json::Num(v)));
                }
            }
            if m.computed {
                fields.push(("computed".into(), Json::Bool(true)));
            }
            (m.name.clone(), Json::Obj(fields))
        }))
    };
    Json::obj([
        ("params", Json::Obj(o.params.clone())),
        ("metrics", metrics(&o.metrics)),
        ("diagnostics", metrics(&o.diagnostics)),
        (
            "checks",
            Json::obj(o.checks.iter().map(|c| (c.name.clone(), Json::Bool(c.ok)))),
        ),
        ("attempted", Json::int(o.attempted())),
        ("failed", Json::int(o.failed())),
    ])
}

/// Append one line to `path`, creating it if needed.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_detached_loose_and_packed_heads() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "abc123\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "# pack\ndef456 refs/heads/main\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("refs/heads/main"), "0123ff\n").unwrap();
        assert_eq!(git_revision(&dir).as_deref(), Some("0123ff"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_revision(&dir), None);
    }
}
