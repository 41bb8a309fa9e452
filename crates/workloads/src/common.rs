//! Shared helpers for the workload generators: deterministic RNG plumbing
//! and the in-memory generated-file representation.

use crate::rng::Rng;

/// A generated file: name plus full text content. Generators return these
/// in memory; [`write_files`] puts them on disk for CLI use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenFile {
    pub name: String,
    pub content: String,
}

impl GenFile {
    /// Byte length of the content (Table 1's "Raw Data" column).
    pub fn len(&self) -> usize {
        self.content.len()
    }

    /// True when the content is empty.
    pub fn is_empty(&self) -> bool {
        self.content.is_empty()
    }
}

/// Write generated files under `dir`, creating it if needed.
pub fn write_files(dir: &std::path::Path, files: &[GenFile]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for f in files {
        std::fs::write(dir.join(&f.name), &f.content)?;
    }
    Ok(())
}

/// Deterministic RNG derived from a seed and a stream label, so different
/// generators sharing one seed do not correlate.
pub fn rng_for(seed: u64, stream: &str) -> Rng {
    let mut h = 1469598103934665603u64; // FNV-1a
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(1099511628211);
    }
    Rng::seed_from_u64(seed ^ h)
}

/// A positive value with multiplicative jitter: `base * (1 ± spread)`.
pub fn jitter(rng: &mut Rng, base: f64, spread: f64) -> f64 {
    let f = 1.0 + rng.gen_range(-spread..spread);
    (base * f).max(1e-9)
}

/// Total bytes across files.
pub fn total_bytes(files: &[GenFile]) -> usize {
    files.iter().map(GenFile::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_stream_separated() {
        let a1: u64 = rng_for(7, "irs").gen();
        let a2: u64 = rng_for(7, "irs").gen();
        let b: u64 = rng_for(7, "smg").gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn jitter_stays_positive_and_bounded() {
        let mut rng = rng_for(1, "jitter");
        for _ in 0..1000 {
            let v = jitter(&mut rng, 10.0, 0.3);
            assert!(v > 6.9 && v < 13.1, "{v}");
        }
    }

    #[test]
    fn write_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ptwl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = vec![GenFile {
            name: "a.txt".into(),
            content: "hello".into(),
        }];
        write_files(&dir, &files).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("a.txt")).unwrap(), "hello");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(total_bytes(&files), 5);
    }
}
