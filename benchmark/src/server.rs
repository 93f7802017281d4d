//! Building and launching the real `arp serve`, and reading what the
//! kernel knows about the child: CPU time and peak resident memory.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;
use crate::probe;

/// `_SC_CLK_TCK`: Linux reports `/proc/<pid>/stat` times in 1/100 s on
/// every architecture it runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds `arp` in release mode from the repository in the current
/// directory and returns the binary's path. A no-op when up to date.
pub fn build_arp() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/arp.rs").is_file() {
        return Err("run from the repository root (src/bin/arp.rs not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "arp"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building arp failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let binary = target.join("release").join("arp");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

/// How to launch one server.
pub struct Launch<'a> {
    pub binary: &'a Path,
    pub city: &'a str,
    /// `--state-dir` (with `--fsync always`) when the workload is durable.
    pub state_dir: Option<PathBuf>,
}

/// A running `arp serve`. Dropping it kills the child, waits for it and
/// removes its state directory.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → first 200 from `GET /api/health`.
    pub setup_s: f64,
    /// Machine-speed probes run while waiting for that 200, ms. The
    /// launch is single-threaded, so on a box with a second core they
    /// see the machine's speed at the very time the launch does.
    pub setup_probes: Vec<f64>,
    state_dir: Option<PathBuf>,
}

impl Server {
    pub fn launch(launch: &Launch) -> Result<Server, String> {
        // Bind to port 0 to learn a free port, then hand it to the child.
        let port = TcpListener::bind(("127.0.0.1", 0))
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut command = Command::new(launch.binary);
        command
            .args(["serve", launch.city, "--scale", "large", "--seed", "42"])
            .args(["--port", &port.to_string()])
            .args(["--trace-sample", "0", "--slow-ms", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = &launch.state_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            command.arg("--state-dir").arg(dir);
            command.args(["--fsync", "always"]);
        }
        let start = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", launch.binary.display()))?;
        // From here the guard owns the child: an early return kills it.
        let mut server = Server {
            child,
            addr,
            setup_s: 0.0,
            setup_probes: Vec::new(),
            state_dir: launch.state_dir.clone(),
        };
        loop {
            if matches!(http::get(addr, "/api/health"), Ok(r) if r.status == 200) {
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("arp serve exited during start-up: {status}"));
            }
            if start.elapsed() > STARTUP_TIMEOUT {
                return Err("arp serve did not become healthy in time".into());
            }
            server.setup_probes.push(probe::run());
        }
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// User + system CPU time of the server so far, in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_stat_cpu_ms(&text).ok_or_else(|| format!("{path}: unexpected format"))
    }

    /// Peak resident set size (`VmHWM`) of the server, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vm_hwm_mb(&text).ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) is in parentheses and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / CLOCK_TICKS_PER_S)
}

/// The `VmHWM:` line of `/proc/<pid>/status`, kB → MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        let plain = "4242 (arp) S 1 4242 4242 0 -1 4194304 1290 0 0 0 \
                     321 45 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(plain), Some(3660.0));
        let hostile = "4242 (a) b (c d)) R 1 4242 4242 0 -1 4194304 1290 0 0 0 \
                       7 3 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(hostile), Some(100.0));
        assert_eq!(parse_stat_cpu_ms("4242 (arp) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ms(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status = "Name:\tarp\nVmPeak:\t  300000 kB\nVmHWM:\t  147936 kB\nVmRSS:\t  140000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(147936.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tarp\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots\n"), None);
    }
}
