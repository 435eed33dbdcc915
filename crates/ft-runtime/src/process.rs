//! Child-process helpers: run a command to completion with a hard deadline.
//!
//! `std::process` has no built-in wait-with-timeout, so a miscompiled
//! infinite loop (or a wedged compiler) would hang any harness that shells
//! out. [`output_with_timeout`] is the shared guard: it drains the child's
//! pipes on reader threads (avoiding the pipe-full deadlock of polling
//! without reading) while polling `try_wait`, and kills the child when the
//! deadline passes.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// What a deadline-guarded child produced.
#[derive(Debug)]
pub struct TimedOutput {
    /// Exit status. When `timed_out` is set this is the kill status, not a
    /// real exit code.
    pub status: ExitStatus,
    /// Everything the child wrote to stdout before exiting or being killed.
    pub stdout: Vec<u8>,
    /// Everything the child wrote to stderr before exiting or being killed.
    pub stderr: Vec<u8>,
    /// Whether the child exceeded the deadline and was killed.
    pub timed_out: bool,
}

impl TimedOutput {
    /// Whether the child exited on its own with success.
    pub fn success(&self) -> bool {
        !self.timed_out && self.status.success()
    }
}

fn drain(stream: Option<impl Read>) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Some(mut s) = stream {
        let _ = s.read_to_end(&mut buf);
    }
    buf
}

/// Run `cmd` to completion, killing it if it runs past `timeout`.
///
/// stdout/stderr are captured (piped); stdin is whatever the caller
/// configured on `cmd`.
///
/// # Errors
///
/// Propagates spawn/wait I/O errors. A timeout is *not* an `Err` — it is
/// reported through [`TimedOutput::timed_out`] so callers can surface a
/// structured error with their own context.
pub fn output_with_timeout(cmd: &mut Command, timeout: Duration) -> std::io::Result<TimedOutput> {
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    let out_pipe = child.stdout.take();
    let err_pipe = child.stderr.take();
    // Reader threads keep both pipes drained; a child that fills a pipe
    // while we only poll try_wait would otherwise block forever.
    let t_out = std::thread::spawn(move || drain(out_pipe));
    let t_err = std::thread::spawn(move || drain(err_pipe));
    let deadline = Instant::now() + timeout;
    let (status, timed_out) = loop {
        match child.try_wait() {
            Ok(Some(status)) => break (status, false),
            Ok(None) => {}
            Err(e) => {
                // Never leak the child on an errored wait path: without the
                // kill+reap it would run on as an orphan and linger as a
                // zombie after exiting — under concurrent spawns those pile
                // up until the PID table fills.
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            match child.wait() {
                Ok(status) => break (status, true),
                Err(e) => {
                    let _ = child.wait();
                    return Err(e);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // On timeout the kill only reaps the direct child; grandchildren that
    // inherited the pipes can keep them open long after, so joining the
    // reader threads could block for their whole lifetime. Forfeit the
    // partial output instead — the threads finish (and free) on their own
    // once the last writer closes.
    let (stdout, stderr) = if timed_out {
        (Vec::new(), Vec::new())
    } else {
        (
            t_out.join().unwrap_or_default(),
            t_err.join().unwrap_or_default(),
        )
    };
    Ok(TimedOutput {
        status,
        stdout,
        stderr,
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_child_completes_with_output() {
        let out = output_with_timeout(
            Command::new("sh").args(["-c", "echo hi; echo oops >&2"]),
            Duration::from_secs(10),
        )
        .expect("spawns");
        assert!(out.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "hi");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim(), "oops");
    }

    #[test]
    fn hung_child_is_killed() {
        let start = Instant::now();
        let out = output_with_timeout(
            Command::new("sh").args(["-c", "sleep 60"]),
            Duration::from_millis(200),
        )
        .expect("spawns");
        assert!(out.timed_out);
        assert!(!out.success());
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn child_filling_pipe_does_not_deadlock() {
        // Write far more than a pipe buffer holds; without reader threads
        // this would wedge the poll loop.
        let out = output_with_timeout(
            Command::new("sh").args(["-c", "yes x | head -c 1000000"]),
            Duration::from_secs(30),
        )
        .expect("spawns");
        assert!(out.success());
        assert_eq!(out.stdout.len(), 1_000_000);
    }

    /// PIDs of our direct children currently in zombie (unreaped) state.
    #[cfg(target_os = "linux")]
    fn zombie_children() -> Vec<u32> {
        let me = std::process::id();
        let mut zs = Vec::new();
        let Ok(rd) = std::fs::read_dir("/proc") else {
            return zs;
        };
        for e in rd.flatten() {
            let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            // stat: `pid (comm) state ppid ...` — comm may hold spaces, so
            // parse from the last ')'.
            let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
                continue;
            };
            let mut fields = rest.split_whitespace();
            let state = fields.next().unwrap_or("");
            let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
            if state == "Z" && ppid == me {
                zs.push(pid);
            }
        }
        zs
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn overlapping_timeouts_leave_no_zombies() {
        // 8 children all blow their deadline at once; every kill path must
        // also reap. A leaked wait would leave `Z` entries under our PID
        // for the rest of the process lifetime.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let out = output_with_timeout(
                            Command::new("sleep").arg("60"),
                            Duration::from_millis(100),
                        )
                        .expect("spawns");
                        assert!(out.timed_out);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        // Tolerate transient zombies from concurrently-running tests (a
        // child is briefly `Z` between its exit and the harness's wait);
        // only a *persistent* zombie is a leak.
        let mut last = Vec::new();
        for _ in 0..50 {
            last = zombie_children();
            if last.is_empty() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("leaked zombie children: {last:?}");
    }
}
