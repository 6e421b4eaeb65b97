//! A small blocking client for the daemon protocol, shared by the
//! `serve-client` bin, the bench suite, and the integration tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;

use crate::proto::{is_terminal_event, submit_line};

/// Any bidirectional byte stream the client can ride on.
pub trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<Box<dyn Stream>>,
    writer: Box<dyn Stream>,
}

/// Everything a watched submit produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchedRun {
    /// Every event line received, in order (including the terminal one).
    pub events: Vec<String>,
    /// The terminal line (`result`, `cancelled`, or `error`).
    pub terminal: String,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(stream),
        })
    }

    /// Reads `state/serve.addr` (written by the daemon after binding) and
    /// connects to it; the daemon's way of publishing an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates read and socket failures.
    pub fn connect_addr_file(path: &Path) -> std::io::Result<Client> {
        let addr = std::fs::read_to_string(path)?;
        Client::connect_tcp(addr.trim())
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives one event line; `None` on EOF.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if !trimmed.is_empty() {
                return Ok(Some(trimmed.to_string()));
            }
        }
    }

    /// Sends a request and returns the single response line.
    ///
    /// # Errors
    ///
    /// An early EOF surfaces as `UnexpectedEof`.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )
        })
    }

    /// Sends a request and collects events until the terminal line.
    ///
    /// # Errors
    ///
    /// An EOF before the terminal line surfaces as `UnexpectedEof`.
    pub fn request_watched(&mut self, line: &str) -> std::io::Result<WatchedRun> {
        self.send(line)?;
        let mut events = Vec::new();
        loop {
            let Some(event) = self.recv()? else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the stream before the terminal event",
                ));
            };
            let terminal = is_terminal_event(&event);
            events.push(event.clone());
            if terminal {
                return Ok(WatchedRun {
                    events,
                    terminal: event,
                });
            }
        }
    }

    /// Submits a spec and watches it to completion.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit_watched(&mut self, spec_json: &str) -> std::io::Result<WatchedRun> {
        self.request_watched(&submit_line(spec_json, true))
    }
}
