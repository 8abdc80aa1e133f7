//! Process facts and the per-run scratch directory.

use std::path::{Path, PathBuf};

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Resident set of this process now, bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A scratch directory inside the checkout, removed on drop — on
/// success, on a failed check and on a panic alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `benchmark/tmp/<label>-<pid>-<nanos>` under the checkout root
    /// (or `tmp/...` when run from the package directory, as
    /// `cargo test` does). Relative to the working directory on
    /// purpose: the benchmark may write only inside its checkout.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let base = if Path::new("benchmark/Cargo.toml").exists() {
            "benchmark/tmp"
        } else {
            "tmp"
        };
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(base).join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let d = ScratchDir::new("unit").unwrap();
            kept = d.path().to_path_buf();
            std::fs::write(kept.join("x"), b"1").unwrap();
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());

        let seen = std::sync::Mutex::new(PathBuf::new());
        let r = std::panic::catch_unwind(|| {
            let d = ScratchDir::new("unit-panic").unwrap();
            *seen.lock().unwrap() = d.path().to_path_buf();
            panic!("failed check");
        });
        assert!(r.is_err());
        let path = seen.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }

    #[test]
    fn rss_is_readable() {
        assert!(peak_rss_mib() > 1.0);
        assert!(rss_bytes() > 1e6);
        assert!(nproc() >= 1);
    }
}
