//! Wire framing for the replication stream.
//!
//! One frame carries one protocol message as a length-prefixed,
//! CRC-checked binary chunk:
//!
//! ```text
//!   ┌───────┬─────────┬────────┬─────────┬─────────────┬─────────┐
//!   │ magic │ seq     │ kind   │ len     │ payload     │ crc32   │
//!   │ SJD1  │ u64 LE  │ u8     │ u32 LE  │ len bytes   │ u32 LE  │
//!   └───────┴─────────┴────────┴─────────┴─────────────┴─────────┘
//! ```
//!
//! The CRC (IEEE 802.3, reflected polynomial `0xEDB8_8320`) covers
//! everything before it, so a chunk truncated mid-frame, a flipped bit
//! in the payload and a corrupted header are all rejected with a named
//! [`FrameError`] — never parsed as a shorter-but-valid frame. Payloads
//! are the journal crate's line-oriented text (`key = value` headers
//! plus one decision record per line), so a captured stream is
//! greppable with the same eyes as a journal file.

use std::fmt;

/// The four magic bytes every frame starts with ("selftune journal
/// decision", wire format 1).
pub(crate) const MAGIC: [u8; 4] = *b"SJD1";

/// Fixed bytes before the payload: magic + seq + kind + len.
const HEADER_LEN: usize = 4 + 8 + 1 + 4;

/// Bytes of the trailing checksum.
const CRC_LEN: usize = 4;

/// CRC-32 (IEEE 802.3), bitwise, reflected polynomial `0xEDB8_8320`.
/// Hand-rolled so the wire format has zero dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash — the cheap content fingerprint checkpoints carry
/// alongside the full summary text (a fast first-pass divergence check
/// before the byte-for-byte comparison).
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// What one frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Stream header: format version, seed, leader thread count,
    /// checkpoint cadence and the full scenario text. Always `seq = 0`.
    Hello = 0,
    /// The plan-time decisions: admission statistics plus every
    /// task/VM admission record. Shipped up front so a follower holds a
    /// complete placement pin table at *any* later cut point.
    Plan = 1,
    /// One epoch's decision batch, in canonical order within the batch.
    Records = 2,
    /// A verification point: cursor epoch, instant, summary hash and the
    /// leader's full interim `summary_csv` at that boundary.
    Checkpoint = 3,
    /// End of stream: the leader's final `summary_csv`.
    Finish = 4,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Plan),
            2 => Some(FrameKind::Records),
            3 => Some(FrameKind::Checkpoint),
            4 => Some(FrameKind::Finish),
            _ => None,
        }
    }
}

/// Why a chunk failed to decode as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The chunk does not start with `MAGIC`.
    BadMagic,
    /// The chunk is shorter than its header + declared payload + CRC
    /// (truncated mid-frame), or longer (two frames glued together).
    BadLength {
        /// Bytes the header promised.
        want: usize,
        /// Bytes the chunk actually holds.
        got: usize,
    },
    /// The trailing checksum does not match the content.
    BadCrc {
        /// Checksum recomputed over the received bytes.
        want: u32,
        /// Checksum the chunk carried.
        got: u32,
    },
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The payload is not valid UTF-8 text.
    BadPayload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (not a SJD1 chunk)"),
            FrameError::BadLength { want, got } => {
                write!(
                    f,
                    "bad frame length: header promises {want} bytes, chunk has {got}"
                )
            }
            FrameError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {want:#010x}, carried {got:#010x}"
                )
            }
            FrameError::BadKind(b) => write!(f, "unknown frame kind byte {b}"),
            FrameError::BadPayload(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

/// One decoded replication frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Position in the stream; the shipper numbers from 0 with no gaps.
    pub seq: u64,
    /// What the payload is.
    pub kind: FrameKind,
    /// Line-oriented text payload (journal codec style).
    pub payload: String,
}

impl Frame {
    /// Encodes the frame into one self-checking chunk.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload.as_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes one chunk, rejecting truncation, corruption and unknown
    /// kinds with a named error.
    pub fn decode(chunk: &[u8]) -> Result<Frame, FrameError> {
        if chunk.len() < 4 || chunk[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if chunk.len() < HEADER_LEN + CRC_LEN {
            return Err(FrameError::BadLength {
                want: HEADER_LEN + CRC_LEN,
                got: chunk.len(),
            });
        }
        let seq = u64::from_le_bytes(chunk[4..12].try_into().expect("8 bytes"));
        let kind_byte = chunk[12];
        let len = u32::from_le_bytes(chunk[13..17].try_into().expect("4 bytes")) as usize;
        let want = HEADER_LEN + len + CRC_LEN;
        if chunk.len() != want {
            return Err(FrameError::BadLength {
                want,
                got: chunk.len(),
            });
        }
        let body = &chunk[..HEADER_LEN + len];
        let carried = u32::from_le_bytes(chunk[HEADER_LEN + len..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if carried != computed {
            return Err(FrameError::BadCrc {
                want: computed,
                got: carried,
            });
        }
        let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
        let payload = String::from_utf8(chunk[HEADER_LEN..HEADER_LEN + len].to_vec())
            .map_err(|e| FrameError::BadPayload(e.to_string()))?;
        Ok(Frame { seq, kind, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Frame {
        Frame {
            seq: 7,
            kind: FrameKind::Records,
            payload: "epoch = 3\nat = 750000000\nkill = at=1 node=0 id=4\n".to_owned(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn encode_decode_round_trips() {
        let frame = demo();
        assert_eq!(Frame::decode(&frame.encode()).expect("decode"), frame);
        // Empty payloads are legal (an epoch with no decisions).
        let empty = Frame {
            seq: 0,
            kind: FrameKind::Hello,
            payload: String::new(),
        };
        assert_eq!(Frame::decode(&empty.encode()).expect("decode"), empty);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let chunk = demo().encode();
        for keep in 0..chunk.len() {
            let err = Frame::decode(&chunk[..keep]).expect_err("truncated chunk accepted");
            assert!(
                matches!(err, FrameError::BadMagic | FrameError::BadLength { .. }),
                "truncation at {keep} gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let chunk = demo().encode();
        for i in 0..chunk.len() {
            let mut bad = chunk.clone();
            bad[i] ^= 0x01;
            assert!(
                Frame::decode(&bad).is_err(),
                "bit flip at byte {i} decoded cleanly"
            );
        }
    }

    #[test]
    fn glued_frames_and_bad_kinds_are_rejected() {
        let mut glued = demo().encode();
        glued.extend_from_slice(&demo().encode());
        assert!(matches!(
            Frame::decode(&glued),
            Err(FrameError::BadLength { .. })
        ));
        // A kind byte outside the enum fails *after* the CRC proves the
        // chunk intact (so the error names the real offence).
        let mut frame = demo();
        frame.payload.clear();
        let mut chunk = frame.encode();
        chunk[12] = 9;
        let crc = crc32(&chunk[..chunk.len() - 4]);
        let n = chunk.len();
        chunk[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&chunk), Err(FrameError::BadKind(9)));
    }
}
