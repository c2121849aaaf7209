//! Spawning `tsa serve` / `tsa cluster` processes and talking NDJSON to
//! them over TCP, as any client of the built binary would.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tsa_service::json::Value;

/// How long a spawned server may take to announce its address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to exit after a `shutdown` op.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// A reply slower than this is treated as a hung server.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned `tsa` server process. Dropping it without
/// [`Server::shutdown`] kills it and every worker pid it reported.
pub struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    /// Seconds from spawn to the `listening on` announcement.
    pub ready_s: f64,
    /// Worker processes the server reported (cluster shards).
    pub worker_pids: Vec<u32>,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Run `binary args` and wait until its stderr announces
    /// `<ready_prefix><addr>`. Later stderr output is drained and dropped.
    pub fn spawn(
        binary: &Path,
        args: &[&str],
        ready_prefix: &'static str,
    ) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut early = Vec::new();
            let mut announced = false;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if announced {
                    continue;
                }
                match line.trim().strip_prefix(ready_prefix) {
                    Some(addr) => {
                        announced = true;
                        let _ =
                            tx.send(addr.trim().parse::<SocketAddr>().map_err(|e| e.to_string()));
                    }
                    None => early.push(line),
                }
            }
            if !announced {
                let _ = tx.send(Err(format!(
                    "exited before listening: {}",
                    early.join(" | ")
                )));
            }
        });
        let announced = rx.recv_timeout(READY_TIMEOUT);
        let ready_s = start.elapsed().as_secs_f64();
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s,
            worker_pids: Vec::new(),
            stderr: Some(reader),
        };
        match announced {
            Ok(Ok(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            Ok(Err(e)) => Err(format!("{}: {e}", binary.display())),
            Err(_) => Err(format!("{}: no `{ready_prefix}` line", binary.display())),
        }
    }

    /// Open a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr)
    }

    /// Pid of the server process itself.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Ask the server to shut down and wait for it (and its workers) to
    /// exit; kills whatever is still running after [`EXIT_TIMEOUT`].
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}\n").map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("shutdown runs once");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        while self.worker_pids.iter().any(|&p| alive(p)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stragglers = kill_pids(&self.worker_pids);
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
        match (asked, status) {
            (Err(e), _) => Err(format!("shutdown op failed: {e}")),
            (_, None) => Err("server did not exit after shutdown; killed".into()),
            _ if stragglers > 0 => Err(format!(
                "{stragglers} worker(s) outlived the server; killed"
            )),
            _ => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            kill_pids(&self.worker_pids);
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// Whether `pid` is running (a zombie awaiting its reaper is not).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
        let state = stat
            .rsplit_once(") ")
            .and_then(|(_, rest)| rest.chars().next());
        !matches!(state, Some('Z' | 'X'))
    })
}

/// SIGKILL every pid in `pids` that is still alive; returns how many were.
fn kill_pids(pids: &[u32]) -> usize {
    let alive: Vec<String> = pids
        .iter()
        .filter(|&&pid| alive(pid))
        .map(u32::to_string)
        .collect();
    if !alive.is_empty() {
        let _ = Command::new("kill").arg("-9").args(&alive).status();
    }
    alive.len()
}

/// One NDJSON client connection with one request in flight at a time.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line (which must end in `\n`, so it goes out in
    /// a single write) and read one response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }

    /// Send a control op and parse its reply.
    pub fn op(&mut self, line: &str) -> Result<Value, String> {
        let reply = self.call(line).map_err(|e| e.to_string())?;
        Value::parse(reply.trim()).map_err(|e| format!("bad reply to {}: {e}", line.trim()))
    }
}

/// Worker pids listed in the `shards` rows of a cluster `stats` reply.
pub fn shard_pids(stats: &Value) -> Vec<u32> {
    match stats.get("shards") {
        Some(Value::Arr(rows)) => rows
            .iter()
            .filter_map(|r| r.get("pid").and_then(Value::as_u64))
            .filter_map(|p| u32::try_from(p).ok())
            .collect(),
        _ => Vec::new(),
    }
}
