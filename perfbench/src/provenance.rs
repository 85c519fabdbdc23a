//! Where a result was measured: machine, toolchain, source revision and
//! build profile. Compare mode refuses to set results from different
//! machines against each other.

use std::path::Path;
use std::process::Command;

use wadc_obs::json::Json;

/// Provenance recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `std::thread::available_parallelism` (what `nproc` reports).
    pub nproc: usize,
    /// Target architecture and OS.
    pub target: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Source revision (`git rev-parse HEAD`), `none` outside a git
    /// checkout.
    pub git_rev: String,
    /// Whether tracked files differ from that revision.
    pub git_dirty: bool,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
}

/// Runs `cmd` in `dir` and returns its trimmed stdout when it succeeds.
/// Git is stopped from searching above `dir`, so a checkout without
/// `.git` reports no revision rather than some enclosing repository's.
fn output(dir: &Path, cmd: &str, args: &[&str]) -> Option<String> {
    let mut c = Command::new(cmd);
    c.args(args).current_dir(dir);
    if let Some(parent) = dir.parent() {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = c.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Collects provenance for the checkout rooted at `root`.
    pub fn collect(root: &Path) -> Provenance {
        let git_rev = output(root, "git", &["rev-parse", "HEAD"]);
        let git_dirty = git_rev.is_some()
            && output(
                root,
                "git",
                &["status", "--porcelain", "--untracked-files=no"],
            )
            .is_some_and(|s| !s.is_empty());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            target: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
            rustc: output(root, "rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev.unwrap_or_else(|| "none".into()),
            git_dirty,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The fields that must match for two results to be comparable.
    pub fn machine(&self) -> String {
        format!(
            "nproc={} target={} rustc={}",
            self.nproc, self.target, self.rustc
        )
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("nproc", self.nproc)
            .field("target", self.target.as_str())
            .field("rustc", self.rustc.as_str())
            .field("git_rev", self.git_rev.as_str())
            .field("git_dirty", self.git_dirty)
            .field("profile", self.profile)
    }

    /// The machine key of a result's JSON provenance.
    pub fn machine_of(j: &Json) -> Option<String> {
        Some(format!(
            "nproc={} target={} rustc={}",
            j.get("nproc")?.as_num()?,
            j.get("target")?.as_str()?,
            j.get("rustc")?.as_str()?
        ))
    }
}
