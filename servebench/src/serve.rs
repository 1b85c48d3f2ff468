//! A client for one `mmt serve` process over its stdin/stdout pipes:
//! one outstanding request at a time, exactly as a front-end that waits
//! for each reply drives it.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `mmt serve`, killed by a watchdog if it outlives the run's
/// deadline (a hung request then reads as end of file).
pub struct Serve {
    child: Arc<Mutex<Child>>,
    pid: u32,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    watchdog: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Serve {
    /// Starts `mmt serve` with `args` in `dir`; its stderr goes to
    /// `serve.stderr` there.
    pub fn spawn(
        mmt: &Path,
        args: &[String],
        dir: &Path,
        deadline: Instant,
    ) -> Result<Serve, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("serve.stderr"))
            .map_err(|e| format!("serve.stderr: {e}"))?;
        let mut child = Command::new(mmt)
            .arg("serve")
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("{}: {e}", mmt.display()))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = BufReader::with_capacity(1 << 20, child.stdout.take().expect("piped stdout"));
        let child = Arc::new(Mutex::new(child));
        let (stop, rx) = channel::<()>();
        let watched = Arc::clone(&child);
        let handle = std::thread::spawn(move || {
            let wait = deadline.saturating_duration_since(Instant::now());
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(wait) {
                if let Ok(mut c) = watched.lock() {
                    let _ = c.kill();
                }
            }
        });
        Ok(Serve {
            child,
            pid,
            stdin,
            stdout,
            watchdog: Some((stop, handle)),
        })
    }

    /// Sends one pre-rendered request (`line` ends in `\n`) and reads
    /// the whole reply line into `reply` (cleared first, newline
    /// stripped). Returns the round trip: from the write of the line to
    /// the read of the reply's last byte.
    pub fn request(&mut self, line: &[u8], reply: &mut Vec<u8>) -> Result<Duration, String> {
        reply.clear();
        let stdin = self.stdin.as_mut().ok_or("stdin already closed")?;
        let t0 = Instant::now();
        stdin
            .write_all(line)
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write: {e}"))?;
        let n = self
            .stdout
            .read_until(b'\n', reply)
            .map_err(|e| format!("read: {e}"))?;
        let rtt = t0.elapsed();
        if n == 0 || reply.last() != Some(&b'\n') {
            return Err("serve closed its stdout (exited, or killed at the deadline)".into());
        }
        reply.pop();
        Ok(rtt)
    }

    /// The process's peak resident set (`VmHWM`), in kB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Closes stdin (`serve` exits 0 on end of file) and waits for the
    /// process and the watchdog to end.
    pub fn finish(mut self) -> Result<ExitStatus, String> {
        self.stdin.take();
        self.wait()
    }

    fn wait(&mut self) -> Result<ExitStatus, String> {
        // Wait outside the lock so the watchdog can still kill a
        // process that never exits.
        let status = loop {
            let polled = self
                .child
                .lock()
                .map_err(|_| "watchdog panicked")?
                .try_wait()
                .map_err(|e| format!("wait: {e}"))?;
            if let Some(s) = polled {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if let Some((stop, handle)) = self.watchdog.take() {
            let _ = stop.send(());
            handle.join().map_err(|_| "watchdog panicked")?;
        }
        Ok(status)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // An early return left the process running: stop it.
        if self.watchdog.is_some() {
            if let Ok(mut c) = self.child.lock() {
                let _ = c.kill();
            }
            self.stdin.take();
            let _ = self.wait();
        }
    }
}
