//! A small synchronous client for the serve protocol — used by the
//! load generator, the loopback tests and anything scripting the
//! server.
//!
//! The client splits the socket into an owned send half and an owned
//! receive half ([`ServeClient::split`]) so an open-loop generator can
//! submit from one thread while another drains responses — the wire
//! protocol is fully pipelined; nothing waits for a reply.
//!
//! The two halves batch differently. The send half writes each request
//! as it is sent, one syscall per frame, so an open-loop generator's
//! send time is the request's departure. The receive half reads through
//! a [`BufReader`]: the server coalesces bursts of responses into one
//! write, and one `recv` here takes in up to 8 KiB of such a burst.
//!
//! A freshly connected client must shake hands before it submits:
//! [`ServeClient::handshake`] sends [`Request::Hello`] and blocks for
//! the [`Response::HelloAck`], returning the version and granted
//! feature bits. The handshake must run before the halves are split and
//! before any pipelined traffic, since it consumes exactly one response
//! frame.

use crate::codec::{
    decode_response, encode_request, read_frame, Hello, HelloAck, Request, Response,
};
use crate::server::Endpoint;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

enum Half {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Half {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Half::Tcp(s) => s.read(buf),
            Half::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Half {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Half::Tcp(s) => s.write(buf),
            Half::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Half::Tcp(s) => s.flush(),
            Half::Unix(s) => s.flush(),
        }
    }
}

/// The sending half: encodes and writes request frames.
pub struct ClientSender {
    stream: Half,
    buf: Vec<u8>,
}

impl ClientSender {
    /// Encode and write one request (one syscall; TCP_NODELAY is set).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.buf.clear();
        encode_request(req, &mut self.buf);
        self.stream.write_all(&self.buf)
    }
}

/// The receiving half: reads response frames through a [`BufReader`]
/// and decodes them, so a burst of frames costs one `recv`.
pub struct ClientReceiver {
    stream: BufReader<Half>,
    buf: Vec<u8>,
}

impl ClientReceiver {
    /// Read one response; `Ok(None)` on clean server close.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        if !read_frame(&mut self.stream, &mut self.buf)? {
            return Ok(None);
        }
        Ok(Some(decode_response(&self.buf)?))
    }

    /// Bound how long [`recv`](Self::recv) blocks (`WouldBlock` /
    /// `TimedOut` errors then surface between frames).
    pub fn set_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self.stream.get_ref() {
            Half::Tcp(s) => s.set_read_timeout(d),
            Half::Unix(s) => s.set_read_timeout(d),
        }
    }
}

/// A connected client (both halves together, for simple sequential
/// request/reply use).
pub struct ServeClient {
    tx: ClientSender,
    rx: ClientReceiver,
}

impl ServeClient {
    /// Connect to a server endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<ServeClient> {
        let (tx_half, rx_half) = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                let r = s.try_clone()?;
                (Half::Tcp(s), Half::Tcp(r))
            }
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                let r = s.try_clone()?;
                (Half::Unix(s), Half::Unix(r))
            }
        };
        Ok(ServeClient {
            tx: ClientSender {
                stream: tx_half,
                buf: Vec::with_capacity(64),
            },
            rx: ClientReceiver {
                stream: BufReader::new(rx_half),
                buf: Vec::with_capacity(128),
            },
        })
    }

    /// Shake hands: send [`Request::Hello`] and block for the ack. The
    /// server may answer with a *lower* version than requested (it
    /// never answers higher). Check `ack.features & FEAT_EDF` to learn
    /// whether deadlines will steer scheduling: an un-granted
    /// connection still submits deadlines and gets verdicts, it just
    /// runs arrival order. A [`Response::Rejected`] here (bad version)
    /// surfaces as `InvalidData`, a close as `UnexpectedEof`.
    pub fn handshake(&mut self, version: u64, features: u64) -> io::Result<HelloAck> {
        self.send(&Request::Hello(Hello { version, features }))?;
        match self.recv()? {
            Some(Response::HelloAck(ack)) => Ok(ack),
            Some(Response::Rejected { code, .. }) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake rejected: {code:?}"),
            )),
            Some(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake got unexpected response: {other:?}"),
            )),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during handshake",
            )),
        }
    }

    /// Encode and write one request.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.tx.send(req)
    }

    /// Read one response; `Ok(None)` on clean server close.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        self.rx.recv()
    }

    /// Split into independently-owned halves for pipelined use from
    /// two threads.
    pub fn split(self) -> (ClientSender, ClientReceiver) {
        (self.tx, self.rx)
    }
}
