//! The on-disk snapshot container: a bespoke little-endian binary format for
//! persisting cache state across process restarts.
//!
//! # Format (version 4)
//!
//! All integers are little-endian; floats are raw `f64::to_bits` patterns.
//!
//! ```text
//! magic            8 bytes   b"QCCSNAP\0"
//! format version   u32
//! kind length      u32       } what kind of cache this is,
//! kind bytes       ..        } e.g. "grape-latency-cache"
//! fingerprint len  u64       } namespace: the writer's device/solver
//! fingerprint      ..        } fingerprint bytes — loads must match exactly
//! header checksum  u64       FNV-1a 64 over every header byte above
//! record count     u64
//! record[i]:
//!   payload len    u64
//!   payload        ..        opaque to the container; typed by `kind`
//!   checksum       u64       FNV-1a 64 over the payload bytes
//! (end of file — trailing bytes are an error)
//! ```
//!
//! The container is deliberately paranoid: the header checksum catches a
//! corrupted preamble before any record is trusted, each record carries its
//! own checksum so a single flipped byte anywhere in the payload is detected,
//! truncation at any byte fails the parse, and bytes past the last record are
//! rejected rather than ignored. A reader therefore either reconstructs
//! exactly what the writer serialized or returns a [`PersistError`] — it
//! never silently misreads, which is what lets callers degrade a bad
//! snapshot to a cold start with no correctness risk.
//!
//! # Version policy
//!
//! [`FORMAT_VERSION`] is bumped on **any** layout change, with no
//! cross-version migration: a version mismatch is a load error
//! ([`PersistError::UnsupportedVersion`]) and the caller falls back to a cold
//! start. Snapshots are caches — regenerating them is always safe — so
//! compatibility machinery would buy nothing but risk.
//!
//! # Atomicity
//!
//! [`write_atomic`] writes to a `.tmp` sibling and renames it over the
//! destination, so a crash mid-write leaves either the old snapshot or none —
//! never a torn file that parses.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use qcc_ir::bytes::{ByteCursor, DecodeError};

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"QCCSNAP\0";

/// Current snapshot format version. Bumped on any layout change; older or
/// newer versions are rejected at load (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 4;

/// File extension used for snapshot files.
pub const SNAPSHOT_EXTENSION: &str = "qccsnap";

/// Why a snapshot could not be loaded (or written).
///
/// Every variant's `Display` names the mismatch concretely — which kind or
/// fingerprint was expected vs found, at which offset the stream gave out —
/// so a rejected warm start is diagnosable from the error string alone.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The first bytes actually found.
        found: Vec<u8>,
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
    },
    /// The file holds a different kind of cache than the reader expected.
    KindMismatch {
        /// Kind the reader asked for.
        expected: String,
        /// Kind recorded in the file.
        found: String,
    },
    /// The file was written under a different fingerprint namespace — e.g. a
    /// different device, device calibration, or solver configuration — and
    /// its contents would be wrong to reuse.
    FingerprintMismatch {
        /// Fingerprint the reader derived from its live configuration.
        expected: Vec<u8>,
        /// Fingerprint recorded in the file.
        found: Vec<u8>,
    },
    /// The header bytes fail their checksum.
    HeaderChecksumMismatch,
    /// A record's payload fails its checksum.
    ChecksumMismatch {
        /// Zero-based index of the failing record.
        record: usize,
    },
    /// The file ended before the declared content did.
    Truncated {
        /// Decoder-level detail: what was being read, at which offset.
        detail: DecodeError,
    },
    /// Bytes remain after the last declared record.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A record payload parsed by a typed codec was malformed.
    Malformed {
        /// Decoder-level detail: what was being read, at which offset.
        detail: DecodeError,
    },
    /// An I/O error reading or writing the snapshot file.
    Io(io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "not a snapshot file: bad magic {found:02x?}")
            }
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            Self::KindMismatch { expected, found } => write!(
                f,
                "snapshot kind mismatch: expected {expected:?}, file holds {found:?}"
            ),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint mismatch: written under a different \
                 configuration (expected {} bytes {:02x?}.., found {} bytes {:02x?}..)",
                expected.len(),
                &expected[..expected.len().min(8)],
                found.len(),
                &found[..found.len().min(8)],
            ),
            Self::HeaderChecksumMismatch => write!(f, "snapshot header checksum mismatch"),
            Self::ChecksumMismatch { record } => {
                write!(f, "snapshot record {record} checksum mismatch")
            }
            Self::Truncated { detail } => write!(f, "snapshot truncated: {detail}"),
            Self::TrailingBytes { extra } => {
                write!(f, "snapshot has {extra} trailing bytes past the last record")
            }
            Self::Malformed { detail } => write!(f, "snapshot record malformed: {detail}"),
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Truncated { detail } | Self::Malformed { detail } => Some(detail),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64-bit hash — the format's checksum and the workspace's signature
/// hash. Deterministic, dependency-free, and sensitive to any single-byte
/// change.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a 64-bit hash as the fixed-width hex token used in snapshot file
/// names (`grape-<hex16>.qccsnap`).
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// Builds a snapshot byte stream: header first, then records appended one at
/// a time.
///
/// ```
/// use qcc_hw::persist::{parse, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new("example-cache", b"fingerprint");
/// w.record(b"payload one");
/// w.record(b"payload two");
/// let bytes = w.finish();
/// let records = parse(&bytes, "example-cache", b"fingerprint").unwrap();
/// assert_eq!(records, vec![b"payload one".to_vec(), b"payload two".to_vec()]);
/// ```
pub struct SnapshotWriter {
    header: Vec<u8>,
    records: Vec<u8>,
    count: u64,
}

impl SnapshotWriter {
    /// Starts a snapshot of the given `kind` under the given `fingerprint`
    /// namespace.
    pub fn new(kind: &str, fingerprint: &[u8]) -> Self {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&(kind.len() as u32).to_le_bytes());
        header.extend_from_slice(kind.as_bytes());
        header.extend_from_slice(&(fingerprint.len() as u64).to_le_bytes());
        header.extend_from_slice(fingerprint);
        let checksum = fnv64(&header);
        header.extend_from_slice(&checksum.to_le_bytes());
        Self {
            header,
            records: Vec::new(),
            count: 0,
        }
    }

    /// Appends one record payload (length-prefixed and checksummed).
    pub fn record(&mut self, payload: &[u8]) {
        self.records
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.records.extend_from_slice(payload);
        self.records
            .extend_from_slice(&fnv64(payload).to_le_bytes());
        self.count += 1;
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finalizes the snapshot and returns the complete byte stream.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.header;
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.records);
        out
    }
}

fn truncated(detail: DecodeError) -> PersistError {
    PersistError::Truncated { detail }
}

/// Parses a snapshot byte stream, validating magic, version, kind,
/// fingerprint, and every checksum, and returns the record payloads in
/// written order.
///
/// Any deviation — wrong magic, foreign version, kind or fingerprint
/// mismatch, a failed checksum, truncation, or trailing bytes — is a
/// [`PersistError`]; no partially-validated data is ever returned.
pub fn parse(
    bytes: &[u8],
    expected_kind: &str,
    expected_fingerprint: &[u8],
) -> Result<Vec<Vec<u8>>, PersistError> {
    let mut cur = ByteCursor::new(bytes);
    let magic = cur
        .bytes(MAGIC.len(), "snapshot magic")
        .map_err(truncated)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic {
            found: magic.to_vec(),
        });
    }
    let version = cur.u32("snapshot format version").map_err(truncated)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let kind_len = cur.u32("snapshot kind length").map_err(truncated)? as usize;
    let kind_bytes = cur.bytes(kind_len, "snapshot kind").map_err(truncated)?;
    let found_kind = String::from_utf8_lossy(kind_bytes).into_owned();
    let fp_len = cur.len("snapshot fingerprint length").map_err(truncated)?;
    let fingerprint = cur
        .bytes(fp_len, "snapshot fingerprint")
        .map_err(truncated)?;
    let header_end = cur.offset();
    let declared_header_checksum = cur.u64("snapshot header checksum").map_err(truncated)?;
    if fnv64(&bytes[..header_end]) != declared_header_checksum {
        return Err(PersistError::HeaderChecksumMismatch);
    }
    // Only trust the kind/fingerprint comparisons after the checksum has
    // vouched for the header bytes — a corrupted fingerprint should read as
    // corruption, not as "someone else's snapshot".
    if found_kind != expected_kind {
        return Err(PersistError::KindMismatch {
            expected: expected_kind.to_string(),
            found: found_kind,
        });
    }
    if fingerprint != expected_fingerprint {
        return Err(PersistError::FingerprintMismatch {
            expected: expected_fingerprint.to_vec(),
            found: fingerprint.to_vec(),
        });
    }
    let count = cur.len("snapshot record count").map_err(truncated)?;
    let mut records = Vec::new();
    for i in 0..count {
        let payload_len = cur.len("record payload length").map_err(truncated)?;
        let payload = cur
            .bytes(payload_len, "record payload")
            .map_err(truncated)?;
        let declared = cur.u64("record checksum").map_err(truncated)?;
        if fnv64(payload) != declared {
            return Err(PersistError::ChecksumMismatch { record: i });
        }
        records.push(payload.to_vec());
    }
    if !cur.is_empty() {
        return Err(PersistError::TrailingBytes {
            extra: cur.remaining(),
        });
    }
    Ok(records)
}

/// Writes `bytes` to `path` atomically: the contents go to a `.tmp` sibling
/// first and are renamed into place, so a crash mid-write can never leave a
/// torn file at `path`. Parent directories are created as needed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp: PathBuf = path.to_path_buf();
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    tmp.set_file_name(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and parses the snapshot at `path` (see [`parse`]).
pub fn load_records(
    path: &Path,
    expected_kind: &str,
    expected_fingerprint: &[u8],
) -> Result<Vec<Vec<u8>>, PersistError> {
    let bytes = std::fs::read(path)?;
    parse(&bytes, expected_kind, expected_fingerprint)
}

/// A cache that can spill its state to a snapshot file and warm-start from
/// one.
///
/// Implementations are fingerprint-namespaced: the snapshot embeds the
/// cache's configuration fingerprint and `warm_start_from` rejects files
/// written under any other configuration (see
/// [`PersistError::FingerprintMismatch`]). The strict `Result` API is for
/// tests and diagnostics; boot paths that should degrade gracefully wrap it
/// and treat any error as a cold start.
pub trait PersistentCache {
    /// The snapshot kind tag this cache writes (e.g. `"grape-latency-cache"`).
    fn snapshot_kind(&self) -> &'static str;

    /// The fingerprint namespace — a byte string that changes whenever reusing
    /// the cached values would be incorrect (device calibration, solver
    /// configuration, device identity).
    fn snapshot_fingerprint(&self) -> Vec<u8>;

    /// Serializes the current cache state to `path` atomically. Returns the
    /// number of records written.
    fn snapshot_to(&self, path: &Path) -> Result<usize, PersistError>;

    /// Loads a snapshot written by `snapshot_to` into this cache. Returns the
    /// number of records loaded. Fails (leaving the cache as it was) if the
    /// file is corrupt, truncated, of a different kind/version, or written
    /// under a different fingerprint.
    fn warm_start_from(&self, path: &Path) -> Result<usize, PersistError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_records() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xff; 100]];
        let mut w = SnapshotWriter::new("test-cache", b"fp-bytes");
        for p in &payloads {
            w.record(p);
        }
        assert_eq!(w.len(), 3);
        let bytes = w.finish();
        let back = parse(&bytes, "test-cache", b"fp-bytes").unwrap();
        assert_eq!(back, payloads);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let w = SnapshotWriter::new("test-cache", b"");
        assert!(w.is_empty());
        let bytes = w.finish();
        assert_eq!(
            parse(&bytes, "test-cache", b"").unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn kind_and_fingerprint_mismatches_are_named() {
        let mut w = SnapshotWriter::new("kind-a", b"fp-1");
        w.record(b"x");
        let bytes = w.finish();
        let err = parse(&bytes, "kind-b", b"fp-1").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("kind-a") && msg.contains("kind-b"), "{msg}");
        let err = parse(&bytes, "kind-a", b"fp-2").unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"));
    }

    #[test]
    fn foreign_version_is_rejected_by_number() {
        let mut w = SnapshotWriter::new("k", b"f");
        w.record(b"x");
        let mut bytes = w.finish();
        // Patch the version field (bytes 8..12) and re-stamp the header
        // checksum so only the version differs.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let fp_start = 8 + 4 + 4 + 1; // magic, version, kind len, "k"
        let header_end = fp_start + 8 + 1; // fp len, "f"
        let fixed = fnv64(&bytes[..header_end]);
        bytes[header_end..header_end + 8].copy_from_slice(&fixed.to_le_bytes());
        match parse(&bytes, "k", b"f").unwrap_err() {
            PersistError::UnsupportedVersion { found: 99 } => {}
            other => panic!("expected UnsupportedVersion, got {other}"),
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let mut w = SnapshotWriter::new("test-cache", b"fp");
        w.record(b"hello");
        w.record(b"world!!");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(
                parse(&bytes[..cut], "test-cache", b"fp").is_err(),
                "prefix of length {cut} parsed"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapshotWriter::new("test-cache", b"fp");
        w.record(b"hello");
        let mut bytes = w.finish();
        bytes.push(0);
        match parse(&bytes, "test-cache", b"fp").unwrap_err() {
            PersistError::TrailingBytes { extra: 1 } => {}
            other => panic!("expected TrailingBytes, got {other}"),
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("qcc-persist-test-{}", std::process::id()));
        let path = dir.join("nested").join("snap.qccsnap");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let tmp_count = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmp_count, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv64_is_single_byte_sensitive_on_samples() {
        let base = b"the quick brown fox".to_vec();
        let h = fnv64(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80] {
                let mut m = base.clone();
                m[i] ^= flip;
                assert_ne!(fnv64(&m), h, "flip bit {flip:#x} at byte {i}");
            }
        }
        assert_eq!(hex16(0xdead_beef), "00000000deadbeef");
    }
}
