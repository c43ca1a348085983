//! Small formatting helpers shared by the figure binaries.

use std::time::Duration;

/// Formats a duration in the unit used by the paper's Fig. 6 (milliseconds, log axis), with
/// enough precision for sub-microsecond values.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64() * 1e3)
}

/// Formats a throughput value in PCBs per second.
pub fn fmt_pcbs_per_sec(pcbs: u64, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64().max(1e-9);
    format!("{:.0}", pcbs as f64 / secs)
}

/// Prints a table header row.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millisecond_formatting() {
        assert_eq!(fmt_ms(Duration::from_millis(2)), "2.000000");
        assert_eq!(fmt_ms(Duration::from_micros(5)), "0.005000");
    }

    #[test]
    fn throughput_formatting() {
        assert_eq!(fmt_pcbs_per_sec(1000, Duration::from_secs(2)), "500");
        // Zero elapsed time does not divide by zero.
        assert!(!fmt_pcbs_per_sec(10, Duration::ZERO).is_empty());
    }
}
