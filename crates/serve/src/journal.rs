//! Journal segment framing and the torn-tail recovery scanner.
//!
//! A segment is a flat concatenation of frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! The CRC covers the payload only; `len` is implicitly validated by
//! the CRC (a corrupted length either lands the CRC on garbage bytes
//! or walks off the end of the file, both of which read as a bad
//! frame). On recovery, [`scan`] walks frames from the start and stops
//! at the first one that doesn't check out. Everything before that
//! point is a **valid prefix** and is replayed; everything after —
//! whether a torn half-written tail or a bit-rotted frame — is
//! unrecoverable by construction (frames after a broken one can't be
//! located reliably) and is truncated away. This is the standard WAL
//! argument: the only writes that can be lost are ones never
//! acknowledged by an fsync, so truncation never discards an
//! acknowledged event.

use crate::crc::crc32;

/// Bytes of header per frame (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload. Real events are tens of
/// bytes; the cap exists so a corrupted length field can't drive a
/// multi-gigabyte allocation during recovery.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A payload too long to frame: it exceeds [`MAX_FRAME`], so [`scan`]
/// would reject the frame as corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The payload's length in bytes.
    pub len: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes)",
            self.len
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Starts a frame in `buf`: clears it and reserves the header. Append
/// the payload to `buf`, then call [`seal_frame`]. Building in place
/// this way never copies the payload.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
}

/// Finishes the frame [`begin_frame`] started in `buf`: writes the
/// payload's length and CRC into the reserved header. A payload over
/// [`MAX_FRAME`] is an error and leaves the header zeroed.
///
/// # Panics
///
/// If `buf` is shorter than the header, i.e. [`begin_frame`] was not
/// called on it.
pub fn seal_frame(buf: &mut [u8]) -> Result<(), FrameTooLarge> {
    seal_frame_within(buf, MAX_FRAME as usize)
}

/// [`seal_frame`] with a payload cap at or below [`MAX_FRAME`]; the
/// engine's tests lower it to reach the oversized-snapshot path with a
/// small network.
pub(crate) fn seal_frame_within(buf: &mut [u8], cap: usize) -> Result<(), FrameTooLarge> {
    let (header, payload) = buf
        .split_first_chunk_mut::<FRAME_HEADER>()
        .expect("seal_frame needs the header begin_frame reserved");
    if payload.len() > cap.min(MAX_FRAME as usize) {
        return Err(FrameTooLarge { len: payload.len() });
    }
    // In range for u32: bounded by MAX_FRAME just above.
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Wraps `payload` in a length-prefixed checksummed frame, copying it.
/// The engine builds its frames in place with [`begin_frame`] and
/// [`seal_frame`]; this form serves tools and tests.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME`]; [`seal_frame`] returns that as
/// an error instead.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    if let Err(e) = seal_frame(&mut out) {
        panic!("{e}");
    }
    out
}

/// Why [`scan`] stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// Every byte belonged to a valid frame.
    Clean,
    /// The segment ended mid-frame: a partial header or a payload
    /// shorter than its declared length. The classic torn write.
    TornTail,
    /// A structurally complete frame failed its checksum, or declared
    /// an impossible length — corruption rather than a torn append.
    CorruptFrame,
}

/// Result of scanning one segment: the decoded payloads of the valid
/// prefix and an accounting of what (if anything) was cut.
#[derive(Debug)]
pub struct ScannedSegment {
    /// Payloads of every frame in the valid prefix, in order.
    pub frames: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (the truncation point).
    pub valid_len: usize,
    /// Bytes past `valid_len` that must be discarded.
    pub bytes_truncated: usize,
    /// How the scan terminated.
    pub end: ScanEnd,
}

impl ScannedSegment {
    /// Whether the segment needs truncation before further appends.
    pub fn is_damaged(&self) -> bool {
        self.end != ScanEnd::Clean
    }
}

/// Walks `bytes` frame by frame, returning the valid prefix and the
/// classification of the first defect. Never panics and never
/// allocates more than [`MAX_FRAME`] per frame, whatever the input.
pub fn scan(bytes: &[u8]) -> ScannedSegment {
    let mut frames = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            return ScannedSegment {
                frames,
                valid_len: at,
                bytes_truncated: 0,
                end: ScanEnd::Clean,
            };
        }
        if rest.len() < FRAME_HEADER {
            return ScannedSegment {
                frames,
                valid_len: at,
                bytes_truncated: rest.len(),
                end: ScanEnd::TornTail,
            };
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME {
            return ScannedSegment {
                frames,
                valid_len: at,
                bytes_truncated: rest.len(),
                end: ScanEnd::CorruptFrame,
            };
        }
        let len = len as usize;
        if rest.len() < FRAME_HEADER + len {
            return ScannedSegment {
                frames,
                valid_len: at,
                bytes_truncated: rest.len(),
                end: ScanEnd::TornTail,
            };
        }
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if crc32(payload) != crc {
            return ScannedSegment {
                frames,
                valid_len: at,
                bytes_truncated: rest.len(),
                end: ScanEnd::CorruptFrame,
            };
        }
        frames.push(payload.to_vec());
        at += FRAME_HEADER + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(&encode_frame(p));
        }
        out
    }

    #[test]
    fn clean_segment_scans_fully() {
        let bytes = segment(&[b"one", b"two", b"", b"three"]);
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::Clean);
        assert_eq!(s.valid_len, bytes.len());
        assert_eq!(s.bytes_truncated, 0);
        assert_eq!(
            s.frames,
            vec![
                b"one".to_vec(),
                b"two".to_vec(),
                Vec::new(),
                b"three".to_vec()
            ]
        );
    }

    #[test]
    fn empty_segment_is_clean() {
        let s = scan(&[]);
        assert_eq!(s.end, ScanEnd::Clean);
        assert!(s.frames.is_empty());
    }

    #[test]
    fn every_torn_tail_length_yields_the_valid_prefix() {
        let bytes = segment(&[b"alpha", b"beta"]);
        let first = encode_frame(b"alpha").len();
        for cut in 0..bytes.len() {
            let s = scan(&bytes[..cut]);
            if cut < first {
                assert!(s.frames.is_empty(), "cut={cut}");
                assert_eq!(s.valid_len, 0, "cut={cut}");
            } else if cut < bytes.len() {
                assert_eq!(s.frames, vec![b"alpha".to_vec()], "cut={cut}");
                assert_eq!(s.valid_len, first, "cut={cut}");
            }
            if cut == 0 || cut == first {
                assert_eq!(s.end, ScanEnd::Clean, "cut={cut}");
            } else {
                assert_eq!(s.end, ScanEnd::TornTail, "cut={cut}");
                assert_eq!(s.bytes_truncated, cut - s.valid_len, "cut={cut}");
            }
        }
    }

    #[test]
    fn bit_flip_anywhere_is_caught_and_truncated_at_frame_start() {
        let bytes = segment(&[b"alpha", b"beta"]);
        let first = encode_frame(b"alpha").len();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x01;
            let s = scan(&bad);
            // The flip lands in frame 0 or frame 1; the valid prefix is
            // everything before the damaged frame.
            let expect_valid = if byte < first { 0 } else { first };
            assert_eq!(s.valid_len, expect_valid, "flip at {byte}");
            assert!(s.is_damaged(), "flip at {byte}");
        }
    }

    #[test]
    fn in_place_frames_match_encode_frame() {
        let mut buf = vec![0xAA; 3]; // stale bytes from an earlier frame
        for payload in [&b""[..], b"x", b"{\"t\":\"leave\",\"node\":7.0}"] {
            begin_frame(&mut buf);
            buf.extend_from_slice(payload);
            seal_frame(&mut buf).unwrap();
            assert_eq!(buf, encode_frame(payload));
        }
    }

    #[test]
    fn oversized_payload_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.resize(FRAME_HEADER + MAX_FRAME as usize + 1, b' ');
        assert_eq!(
            seal_frame(&mut buf),
            Err(FrameTooLarge {
                len: MAX_FRAME as usize + 1
            })
        );
        assert_eq!(buf[..FRAME_HEADER], [0; FRAME_HEADER], "header untouched");
        // Exactly MAX_FRAME still frames, and scans back whole.
        buf.truncate(FRAME_HEADER + MAX_FRAME as usize);
        seal_frame(&mut buf).unwrap();
        let s = scan(&buf);
        assert_eq!(s.end, ScanEnd::Clean);
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.frames[0].len(), MAX_FRAME as usize);
    }

    #[test]
    fn absurd_length_is_corrupt_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(b"whatever");
        let s = scan(&bytes);
        assert_eq!(s.end, ScanEnd::CorruptFrame);
        assert_eq!(s.valid_len, 0);
    }
}
