//! Decompression error type.
//!
//! Corruption errors carry *where* the damage was found — the block index
//! within the container and the byte offset of the block's framing — so
//! callers (the CLI `verify` report, [`crate::container::decompress_lossy`],
//! the salvage path) can localize damage instead of just learning "the
//! file is bad".

use std::fmt;

/// Why a compressed stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream does not start with the PaSTRI magic bytes.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// The stream ended before all declared content was read.
    Truncated,
    /// Reading the source failed for a reason other than its end.
    Unreadable(std::io::ErrorKind),
    /// Structurally invalid content. `block` and `offset` localize the
    /// damage when it was found inside a specific block: `block` is the
    /// zero-based block index and `offset` the container byte offset of
    /// that block's framing (its length varint). Both are `None` for
    /// header-level corruption.
    Corrupt {
        /// Zero-based index of the damaged block, if the damage is
        /// attributable to one block.
        block: Option<usize>,
        /// Byte offset (from the start of the container) of the damaged
        /// region, if known.
        offset: Option<u64>,
        /// What check failed.
        reason: &'static str,
    },
    /// A CRC32 stored in the container (v2) did not match the bytes it
    /// covers. Same localization convention as [`Self::Corrupt`].
    ChecksumMismatch {
        /// Zero-based index of the damaged block; `None` means the header
        /// checksum failed.
        block: Option<usize>,
        /// Byte offset of the checksummed region, if known.
        offset: Option<u64>,
        /// The CRC32 recorded in the container.
        expected: u32,
        /// The CRC32 of the bytes actually present.
        actual: u32,
    },
}

impl DecompressError {
    /// Corruption with no location attached yet (header-level, or not yet
    /// attributed to a block). Attach context with [`Self::with_block`] /
    /// [`Self::at_offset`].
    #[must_use]
    pub(crate) const fn corrupt(reason: &'static str) -> Self {
        DecompressError::Corrupt {
            block: None,
            offset: None,
            reason,
        }
    }

    /// Attributes a corruption or checksum error to block `b`; other
    /// variants pass through unchanged.
    #[must_use]
    pub(crate) fn with_block(self, b: usize) -> Self {
        match self {
            DecompressError::Corrupt { offset, reason, .. } => DecompressError::Corrupt {
                block: Some(b),
                offset,
                reason,
            },
            DecompressError::ChecksumMismatch {
                offset,
                expected,
                actual,
                ..
            } => DecompressError::ChecksumMismatch {
                block: Some(b),
                offset,
                expected,
                actual,
            },
            other => other,
        }
    }

    /// Records the container byte offset where a corruption or checksum
    /// error was detected; other variants pass through unchanged.
    #[must_use]
    pub(crate) fn at_offset(self, o: u64) -> Self {
        match self {
            DecompressError::Corrupt { block, reason, .. } => DecompressError::Corrupt {
                block,
                offset: Some(o),
                reason,
            },
            DecompressError::ChecksumMismatch {
                block,
                expected,
                actual,
                ..
            } => DecompressError::ChecksumMismatch {
                block,
                offset: Some(o),
                expected,
                actual,
            },
            other => other,
        }
    }
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::BadMagic => write!(f, "not a PaSTRI stream (bad magic)"),
            DecompressError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            DecompressError::Truncated => write!(f, "stream truncated"),
            DecompressError::Unreadable(kind) => write!(f, "source unreadable: {kind}"),
            DecompressError::Corrupt { block, offset, reason } => {
                write!(f, "corrupt stream: {reason}")?;
                if let Some(b) = block {
                    write!(f, " (block {b}")?;
                    if let Some(o) = offset {
                        write!(f, ", offset {o}")?;
                    }
                    write!(f, ")")?;
                } else if let Some(o) = offset {
                    write!(f, " (offset {o})")?;
                }
                Ok(())
            }
            DecompressError::ChecksumMismatch {
                block,
                offset,
                expected,
                actual,
            } => {
                match block {
                    Some(b) => write!(f, "checksum mismatch in block {b}")?,
                    None => write!(f, "header checksum mismatch")?,
                }
                if let Some(o) = offset {
                    write!(f, " at offset {o}")?;
                }
                write!(f, ": stored {expected:#010x}, computed {actual:#010x}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

impl From<bitio::ReadError> for DecompressError {
    fn from(_: bitio::ReadError) -> Self {
        DecompressError::Truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_attaches_to_corrupt() {
        let e = DecompressError::corrupt("bad thing").with_block(3).at_offset(40);
        assert_eq!(
            e,
            DecompressError::Corrupt {
                block: Some(3),
                offset: Some(40),
                reason: "bad thing"
            }
        );
        assert_eq!(e.to_string(), "corrupt stream: bad thing (block 3, offset 40)");
    }

    #[test]
    fn context_is_noop_on_other_variants() {
        assert_eq!(
            DecompressError::Truncated.with_block(1).at_offset(2),
            DecompressError::Truncated
        );
    }

    #[test]
    fn checksum_display() {
        let e = DecompressError::ChecksumMismatch {
            block: Some(2),
            offset: Some(100),
            expected: 0xdead_beef,
            actual: 0x1234_5678,
        };
        assert_eq!(
            e.to_string(),
            "checksum mismatch in block 2 at offset 100: stored 0xdeadbeef, computed 0x12345678"
        );
    }
}
