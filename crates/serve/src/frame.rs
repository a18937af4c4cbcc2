//! Length-prefixed framing over a byte stream.
//!
//! Every protocol message is `u32 big-endian payload length ‖ payload`.
//! The length prefix is validated against a maximum *before* any payload
//! allocation, so a hostile client declaring a 4 GiB frame costs the
//! server a 4-byte read and a closed connection, never memory. Reads
//! honor the socket's read timeout: a client that stalls mid-frame
//! (slowloris) hits the timeout and the connection is dropped rather
//! than wedging the worker thread.
//!
//! A frame goes out in **one** `write` — prefix and payload in one
//! buffer (`FrameBuf`) — and so arrives as one segment: on a
//! `TCP_NODELAY` socket two writes are two segments and two wake-ups of
//! the peer. It should come in through a buffered reader
//! (`BufReader<TcpStream>`), which picks up prefix and payload in one
//! `read`. Frames written back to back are read back one by one, so a
//! peer may pipeline requests.

use std::io::{self, Read, Write};

/// Default maximum accepted *request* frame size (1 MiB). Requests are
/// small (an op plus a parameter map); anything bigger is hostile or
/// broken.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Default maximum *response* frame size (64 MiB): sweep responses carry
/// thousands of points. A response that would exceed this is reported as
/// a structured error instead of a torn frame.
pub const DEFAULT_MAX_RESPONSE: usize = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a frame started.
    Closed,
    /// The declared length exceeds the configured maximum.
    TooLarge {
        /// Length the prefix declared.
        declared: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The connection died or timed out mid-frame (torn frame, stalled
    /// peer, reset).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Payload capacity a reused buffer keeps between frames; one larger
/// frame does not pin its size for the life of the connection.
const RETAINED_CAPACITY: usize = 64 << 10;

/// Read one length-prefixed frame. [`FrameError::Closed`] means the peer
/// shut down cleanly between frames; a torn prefix or payload is
/// [`FrameError::Io`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, max, &mut payload)?;
    Ok(payload)
}

/// [`read_frame`] into a payload buffer the caller reuses from frame to
/// frame. On an error the buffer's contents are unspecified.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    max: usize,
    payload: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn prefix.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(FrameError::Closed);
                }
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn length prefix",
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    payload.clear();
    payload.shrink_to(declared.max(RETAINED_CAPACITY));
    payload.resize(declared, 0);
    r.read_exact(payload)?;
    Ok(())
}

/// A frame built in place: four bytes reserved for the prefix, the
/// payload written straight after them, the prefix patched in once the
/// length is known, and the whole sent in one `write_all`. Reused from
/// frame to frame.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf(Vec<u8>);

impl FrameBuf {
    /// Start a new frame; the payload is whatever the caller appends to
    /// the returned buffer (which already holds the reserved prefix).
    pub(crate) fn start(&mut self) -> &mut Vec<u8> {
        self.0.clear();
        self.0.shrink_to(RETAINED_CAPACITY);
        self.0.extend_from_slice(&[0; 4]);
        &mut self.0
    }

    /// Bytes of payload appended since [`FrameBuf::start`].
    pub(crate) fn payload_len(&self) -> usize {
        self.0.len() - 4
    }

    /// Patch the prefix in and return prefix‖payload.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the payload exceeds `max` or a `u32`.
    pub(crate) fn seal(&mut self, max: usize) -> io::Result<&[u8]> {
        let len = self.payload_len();
        let prefix = u32::try_from(len)
            .ok()
            .filter(|_| len <= max)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{len}-byte frame exceeds the {max}-byte limit"),
                )
            })?;
        self.0[..4].copy_from_slice(&prefix.to_be_bytes());
        Ok(&self.0)
    }

    /// Send the frame in one `write_all`.
    ///
    /// # Errors
    ///
    /// As [`FrameBuf::seal`] (nothing is written), or any socket failure.
    pub(crate) fn send(&mut self, w: &mut impl Write, max: usize) -> io::Result<()> {
        w.write_all(self.seal(max)?)?;
        w.flush()
    }
}

/// Write one length-prefixed frame, prefix and payload in a single
/// `write_all`.
///
/// # Errors
///
/// Returns an error if the payload exceeds `max` (the caller should send
/// a structured error instead) or on any socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    FrameBuf(frame).send(w, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let r = read_frame(&mut &buf[..], 1024);
        match r {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn torn_prefix_and_torn_payload_are_io_errors() {
        assert!(matches!(
            read_frame(&mut &[0u8, 0][..], 1024),
            Err(FrameError::Io(_))
        ));
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 1024).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut &buf[..], 1024),
            Err(FrameError::Io(_))
        ));
    }

    /// Counts `write` calls and accepts at most `chunk` bytes in each.
    struct CountingWrite {
        calls: usize,
        chunk: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.chunk);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_whatever_its_size() {
        for len in [0, 5, 192, 3 << 20] {
            let payload = vec![b'x'; len];
            let mut w = CountingWrite {
                calls: 0,
                chunk: usize::MAX,
                bytes: Vec::new(),
            };
            write_frame(&mut w, &payload, DEFAULT_MAX_RESPONSE).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte payload");
            assert_eq!(
                read_frame(&mut &w.bytes[..], DEFAULT_MAX_RESPONSE).unwrap(),
                payload
            );
        }
        // A writer that takes less than it is offered still gets it all.
        let mut w = CountingWrite {
            calls: 0,
            chunk: 7,
            bytes: Vec::new(),
        };
        write_frame(&mut w, b"a payload of 26 characters", 1024).unwrap();
        assert_eq!(w.calls, 5);
        assert_eq!(
            read_frame(&mut &w.bytes[..], 1024).unwrap(),
            b"a payload of 26 characters"
        );
    }

    #[test]
    fn a_reused_buffer_holds_exactly_the_last_frame() {
        let mut wire = Vec::new();
        let big = vec![b'y'; 4 * RETAINED_CAPACITY];
        for payload in [&b"first, the longer one"[..], b"second", &big, b""] {
            write_frame(&mut wire, payload, DEFAULT_MAX_FRAME).unwrap();
        }
        // Through a buffered reader, as the server and the client read.
        let mut r = io::BufReader::new(&wire[..]);
        let mut payload = Vec::new();
        for want in [&b"first, the longer one"[..], b"second", &big, b""] {
            read_frame_into(&mut r, DEFAULT_MAX_FRAME, &mut payload).unwrap();
            assert_eq!(payload, want);
        }
        assert!(payload.capacity() <= RETAINED_CAPACITY);
        assert!(matches!(
            read_frame_into(&mut r, DEFAULT_MAX_FRAME, &mut payload),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn a_frame_built_in_place_equals_a_written_one() {
        let mut frame = FrameBuf::default();
        for payload in [&b"hello"[..], b"", b"a second frame reuses the buffer"] {
            frame.start().extend_from_slice(payload);
            assert_eq!(frame.payload_len(), payload.len());
            let mut direct = Vec::new();
            frame.send(&mut direct, 1024).unwrap();
            let mut written = Vec::new();
            write_frame(&mut written, payload, 1024).unwrap();
            assert_eq!(direct, written);
        }
        frame.start().extend_from_slice(&[0u8; 32]);
        let mut out = Vec::new();
        assert!(frame.send(&mut out, 16).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn oversized_write_is_refused() {
        let mut buf = Vec::new();
        assert!(write_frame(&mut buf, &[0u8; 32], 16).is_err());
        assert!(
            buf.is_empty(),
            "refused frame must not be partially written"
        );
    }
}
