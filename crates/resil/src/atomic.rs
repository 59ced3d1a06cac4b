//! Crash-safe artifact writes: temp file + rename.
//!
//! Every artifact the workspace emits (CSV tables, run manifests,
//! traces) goes through [`atomic_write`]: the bytes land in a
//! `<name>.tmp` sibling first and are renamed over the destination only
//! once fully written. A crash — or an injected `io.write` fault —
//! therefore never leaves a torn file at the destination: readers see
//! the complete old content or the complete new content, nothing in
//! between.
//!
//! The `io.write` fault site simulates the write dying before the
//! rename. The salt is the FNV-1a hash of the *file name* (not the full
//! path, so decisions match across checkouts and output directories)
//! and the unit is the attempt index; [`atomic_write`] retries under
//! the usual attempt-bounded policy before giving up.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

use crate::fault::should_inject;
use crate::retry::with_retries;

/// Attempt budget for one logical artifact write.
pub const WRITE_ATTEMPTS: usize = 3;

/// Writes `bytes` to `path` atomically, creating parent directories.
///
/// On error the destination is untouched and no temp file is left
/// behind.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    create_parents(path)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let salt = qjo_obs::fnv1a64(path.file_name().unwrap_or_default().as_encoded_bytes());
    let result = with_retries("io.write", WRITE_ATTEMPTS, |attempt| {
        if should_inject("io.write", salt, attempt as u64) {
            // Simulate the crash mid-write: a torn temp file exists for
            // a moment, the destination never changes.
            let _ = fs::write(tmp, &bytes[..bytes.len() / 2]);
            let _ = fs::remove_file(tmp);
            return Err(io::Error::other(format!(
                "injected io.write fault on {} (attempt {attempt})",
                path.display()
            )));
        }
        write_via_temp(path, tmp, bytes)
    });
    if result.is_err() {
        let _ = fs::remove_file(tmp);
    }
    result
}

fn create_parents(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

fn write_via_temp(path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    file.flush()?;
    drop(file);
    fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{scoped, without_faults, FaultPlan};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qjo-resil-atomic-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_bytes_and_creates_parents() {
        without_faults(|| {
            let dir = temp_dir("plain");
            let path = dir.join("nested/out.csv");
            atomic_write(&path, b"a,b\n1,2\n").unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"a,b\n1,2\n");
            assert!(!path.with_extension("csv.tmp").exists());
            let _ = fs::remove_dir_all(&dir);
        });
    }

    #[test]
    fn certain_failure_leaves_no_partial_file() {
        let dir = temp_dir("torn");
        let path = dir.join("out.csv");
        {
            let _guard = scoped(FaultPlan::new(0).with_rate("io.write", 1.0));
            assert!(atomic_write(&path, b"fresh content").is_err());
        }
        // Neither a destination nor a temp file survives the failure.
        assert!(!path.exists(), "torn write must not create the destination");
        let leftovers: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "temp droppings: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_overwrite_keeps_the_old_content() {
        let dir = temp_dir("keep");
        let path = dir.join("out.json");
        without_faults(|| atomic_write(&path, b"old").unwrap());
        {
            let _guard = scoped(FaultPlan::new(0).with_rate("io.write", 1.0));
            assert!(atomic_write(&path, b"new").is_err());
        }
        assert_eq!(fs::read(&path).unwrap(), b"old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_failure_recovers_on_retry() {
        // Probe for a plan seed whose decision stream for this file name
        // is (fail, pass, ...): the first attempt dies, the retry lands.
        let salt = qjo_obs::fnv1a64(b"out.csv");
        let seed = (0..256)
            .find(|&seed| {
                let _guard = scoped(FaultPlan::new(seed).with_rate("io.write", 0.5));
                should_inject("io.write", salt, 0) && !should_inject("io.write", salt, 1)
            })
            .expect("some seed in 0..256 yields (fail, pass)");
        let dir = temp_dir("recover");
        let path = dir.join("out.csv");
        let _guard = scoped(FaultPlan::new(seed).with_rate("io.write", 0.5));
        let before = qjo_obs::global().snapshot();
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        let deltas = qjo_obs::global().snapshot().counter_deltas_since(&before);
        assert_eq!(deltas.get("resil.io.write.retries"), Some(&1));
        assert_eq!(deltas.get("resil.io.write.recovered"), Some(&1));
        let _ = fs::remove_dir_all(&dir);
    }
}
