//! The `diaframe serve` wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. Frames larger than [`MAX_FRAME`] are rejected before any
//! allocation, so a garbage length prefix cannot OOM the daemon.
//!
//! Requests (the `op` field selects the operation):
//!
//! ```text
//! {"op":"verify","examples":["arc","spin_lock"]}   // batch (or one)
//! {"op":"verify_all"}                              // the whole suite
//! {"op":"stats"}                                   // store + cache counters
//! {"op":"shutdown"}                                // drain and exit
//! ```
//!
//! Responses always carry `"ok": true|false`; failures carry `"error"`.
//! A verify response carries one `results` row per requested example
//! (name, verdict, spec/manual/hint counts, whether the proof came from
//! a store replay, and the replay/search milliseconds) plus `table`, the
//! deterministic [`verdict_table_for`](crate::verdict_table_for)
//! rendering that clients byte-compare across runs.
//!
//! The protocol is deliberately version-stamped: every response includes
//! `"proto": 1`, and the engine fingerprint is available via `stats`, so
//! a client can refuse to mix daemons across engine versions.

use std::io::{self, Read, Write};

/// Protocol revision carried in every response.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a single frame's body, requests and responses alike.
/// Generous for batch verdict tables; tiny compared to a bad length
/// prefix's 4 GiB ceiling.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns the underlying I/O error, or `InvalidInput` if `body`
/// exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                    body.len()
                ),
            )
        })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer hung
/// up between frames); an EOF *inside* a frame is an error.
///
/// # Errors
///
/// Returns the underlying I/O error, `InvalidData` for an oversized
/// length prefix or non-UTF-8 body, or `UnexpectedEof` for a truncated
/// frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    String::from_utf8(body).map(Some).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame is not UTF-8: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"stats\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"stats\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"shutdown\"}").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn non_utf8_body_is_rejected() {
        let mut buf = Vec::from(2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = read_frame(&mut io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
