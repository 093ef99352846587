//! The client side of the benchmark: a keep-alive HTTP/1.1 connection,
//! and the `les3-serve` child process (build, spawn, readiness, peak
//! memory, teardown).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Replaces a connection a failed call left in an unknown state.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Conn::connect(self.addr)?;
        Ok(())
    }

    /// Sends one request and reads its response: `(status, body)`.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }
}

/// Builds `les3-serve` from the checkout's source and returns its path.
/// Cargo's output goes to stderr; stdout stays the benchmark's.
pub fn build_server(root: &Path) -> io::Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "les3-net",
            "--bin",
            "les3-serve",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building les3-serve failed: {status}"
        )));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("les3-serve"))
}

/// A running `les3-serve`; dropping it kills the process and waits for
/// it to end.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held open so the server's own prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the server on an ephemeral port and returns once it
    /// printed its listening address.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("les3-serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                break addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad listening line {line:?}")))?;
            }
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// Polls `GET /healthz` until it answers 200.
    pub fn wait_healthy(&self, limit: Duration) -> io::Result<()> {
        let start = Instant::now();
        let request = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
        loop {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                if let Ok((200, _)) = conn.call(request) {
                    return Ok(());
                }
            }
            if start.elapsed() > limit {
                return Err(io::Error::other("les3-serve never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `VmHWM` of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
