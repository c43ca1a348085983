//! Host readings from `/proc`: memory high-water mark, processor time, load.
//!
//! These describe the machine running the simulator, never the simulated system. A
//! reading that is unavailable (not Linux, `/proc` not mounted) is reported as 0.

use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS") / 1024.0
}

/// User + system processor time consumed by this process (all threads), in seconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may contain spaces; fields are counted after the
            // closing parenthesis, where utime and stime are the 12th and 13th.
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measures the share of wall time a stretch of work kept the processor busy.
pub struct CpuShare {
    wall: Instant,
    cpu: f64,
}

impl CpuShare {
    pub fn start() -> Self {
        CpuShare {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// (user + sys) ÷ wall since [`CpuShare::start`].
    pub fn share(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        if wall > 0.0 {
            (cpu_seconds() - self.cpu) / wall
        } else {
            0.0
        }
    }
}
