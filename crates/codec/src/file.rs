//! Filesystem helpers: atomic writes and whole-artifact read/write.

use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::error::PersistError;
use crate::frame::{check_artifact, encode_artifact, ArtifactKind, ARTIFACT_PREFIX_LEN};

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` by atomic rename: the bytes land in a sibling
/// `*.tmp` file first and are renamed into place, so a process that
/// crashes mid-write leaves either the old artifact or the new one — never
/// a half-written file at the final path.
///
/// Nothing here calls `fsync`, so the guarantee covers a process crash
/// only: after a power loss or OS crash the file system may keep the
/// renamed file without all of its bytes. Such an artifact is lost; its
/// frame checksum makes it fail to open rather than decode wrong data.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_path(path);
    fs::write(&tmp, bytes).map_err(|e| PersistError::io(&tmp, "write", &e))?;
    fs::rename(&tmp, path).map_err(|e| PersistError::io(path, "rename", &e))?;
    Ok(())
}

/// Atomically writes a single-frame artifact (header + checksummed frame)
/// around `payload`.
pub fn write_artifact(path: &Path, kind: ArtifactKind, payload: &[u8]) -> Result<(), PersistError> {
    write_atomic(path, &encode_artifact(kind, payload))
}

/// Reads and validates a single-frame artifact, returning its payload.
///
/// The header and frame prefix are read on their own, so the payload is
/// read straight into the returned buffer: one allocation the size of the
/// payload, and no copy.
pub fn read_artifact(path: &Path, kind: ArtifactKind) -> Result<Vec<u8>, PersistError> {
    let read_error = |e: std::io::Error| PersistError::io(path, "read", &e);
    let mut file = File::open(path).map_err(read_error)?;
    let mut head = Vec::with_capacity(ARTIFACT_PREFIX_LEN);
    (&mut file)
        .take(ARTIFACT_PREFIX_LEN as u64)
        .read_to_end(&mut head)
        .map_err(read_error)?;
    let mut payload = Vec::new();
    file.read_to_end(&mut payload).map_err(read_error)?;
    check_artifact(&head, &payload, kind).map_err(|e| PersistError::codec(path, e))?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ism-codec-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn artifact_file_round_trips() {
        let path = scratch("roundtrip.ism");
        write_artifact(&path, ArtifactKind::TrainCheckpoint, b"payload").unwrap();
        assert_eq!(
            read_artifact(&path, ArtifactKind::TrainCheckpoint).unwrap(),
            b"payload"
        );
        // Overwrite goes through the same atomic path.
        write_artifact(&path, ArtifactKind::TrainCheckpoint, b"updated").unwrap();
        assert_eq!(
            read_artifact(&path, ArtifactKind::TrainCheckpoint).unwrap(),
            b"updated"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn read_artifact_fails_exactly_like_decode_artifact() {
        // `read_artifact` validates the header + frame prefix and the
        // payload as two pieces; every truncation, bit flip and trailing
        // byte must fail with the error the joined bytes give.
        use crate::frame::decode_artifact;
        let path = scratch("parity.ism");
        let kind = ArtifactKind::EngineSnapshot;
        let good = encode_artifact(kind, b"twenty-one byte body!");
        let mut cases: Vec<Vec<u8>> = (0..=good.len()).map(|n| good[..n].to_vec()).collect();
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0x04;
            cases.push(flipped);
        }
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"xyz");
        cases.push(trailing);
        for bytes in cases {
            fs::write(&path, &bytes).unwrap();
            let expected = decode_artifact(&bytes, kind)
                .map(<[u8]>::to_vec)
                .map_err(|e| PersistError::codec(&path, e));
            assert_eq!(read_artifact(&path, kind), expected, "{bytes:?}");
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let path = scratch("does-not-exist.ism");
        fs::remove_file(&path).ok();
        assert!(matches!(
            read_artifact(&path, ArtifactKind::EngineSnapshot),
            Err(PersistError::Io { op: "read", .. })
        ));
    }

    #[test]
    fn corrupt_file_is_a_typed_codec_error() {
        let path = scratch("corrupt.ism");
        write_artifact(&path, ArtifactKind::EngineSnapshot, b"payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_artifact(&path, ArtifactKind::EngineSnapshot),
            Err(PersistError::Codec { .. })
        ));
        fs::remove_file(&path).ok();
    }
}
