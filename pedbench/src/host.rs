//! Readers for the host context a run is measured in: the process's
//! peak and current resident set, its CPU time, and the hypervisor steal
//! time of the whole machine. Linux `/proc` only; elsewhere the readers
//! return `None`.

use std::fs;

/// A `Vm*:` field of `/proc/self/status` (reported in kB), in MB.
fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let mut parts = line[field.len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_field_mb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")
}

/// Current resident set size (`VmRSS`) of this process, in MB.
pub fn rss_mb() -> Option<f64> {
    status_field_mb(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS:")
}

/// Return the allocator's free memory to the kernel (glibc
/// `malloc_trim`), so that the next peak reflects what the following work
/// needs rather than what earlier work left behind in per-thread arenas.
/// A no-op on other C libraries.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free pages; it takes the
        // allocator's own locks and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset this process's `VmHWM` to its current RSS (Linux 4.0+), so the
/// next reading is the peak of the interval since. Returns false where
/// the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Check the peak reader against the current RSS after set-up: a peak
/// below the current resident set means the reader is reading the wrong
/// process or the wrong unit. Records both figures.
pub fn check_peak_reader(out: &mut crate::kv::Kv) {
    let rss = rss_mb().expect("VmRSS is not available");
    let peak = peak_rss_mb().expect("VmHWM is not available");
    assert!(
        peak >= rss,
        "VmHWM {peak} MB below VmRSS {rss} MB after set-up"
    );
    out.set("rss_after_setup_mb", rss);
    out.set("lifetime_peak_rss_mb", peak);
}

/// Clock ticks per second for `/proc` tick counters. `USER_HZ` is 100
/// on every Linux ABI this runs on.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of this process, in seconds, from
/// `/proc/self/stat` (fields 14 and 15).
pub fn cpu_s() -> Option<f64> {
    parse_cpu_s(&fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesized and may hold spaces;
    // fields after the closing parenthesis start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Machine-wide steal time so far, in seconds: the eighth counter of the
/// aggregate `cpu` line of `/proc/stat`. Take the difference of two
/// readings to get the steal during an interval.
pub fn steal_s() -> Option<f64> {
    parse_steal_s(&fs::read_to_string("/proc/stat").ok()?)
}

fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / TICKS_PER_S)
}

/// Steal and CPU time over a timed region.
pub struct Meter {
    steal: Option<f64>,
    cpu: Option<f64>,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            steal: steal_s(),
            cpu: cpu_s(),
        }
    }

    /// Record `steal_s` and `cpu_s`, the deltas since `start`.
    pub fn finish(self, out: &mut crate::kv::Kv) {
        let delta = |a: Option<f64>, b: Option<f64>| a.zip(b).map_or(0.0, |(a, b)| b - a);
        out.set("steal_s", delta(self.steal, steal_s()));
        out.set("cpu_s", delta(self.cpu, cpu_s()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_convert_kb_to_mb() {
        let status =
            "Name:\tpedbench\nVmPeak:\t  20480 kB\nVmHWM:\t   5632 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(status_field_mb(status, "VmHWM:"), Some(5.5));
        assert_eq!(status_field_mb(status, "VmRSS:"), Some(4.0));
        assert_eq!(status_field_mb(status, "VmSwap:"), None);
        assert_eq!(status_field_mb("VmHWM:\t 12 pages\n", "VmHWM:"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_at_least_current_rss_after_allocating() {
        // Touch 32 MB so the process is well past its start-up footprint.
        let block = vec![1u8; 32 << 20];
        let rss = rss_mb().unwrap();
        let hwm = peak_rss_mb().unwrap();
        assert!(block.iter().step_by(4096).all(|&b| b == 1));
        assert!(rss >= 32.0, "VmRSS {rss} MB after touching 32 MB");
        assert!(hwm >= rss, "VmHWM {hwm} MB below VmRSS {rss} MB");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_reset_drops_a_freed_peak() {
        let block = vec![1u8; 64 << 20];
        assert!(block.iter().step_by(4096).all(|&b| b == 1));
        let high = peak_rss_mb().unwrap();
        drop(block);
        if reset_peak_rss() {
            let after = peak_rss_mb().unwrap();
            assert!(after < high, "peak {after} MB not reset below {high} MB");
            assert!(after >= rss_mb().unwrap() - 1.0);
        }
    }

    #[test]
    fn cpu_time_parses_past_a_command_with_spaces() {
        let stat = "4242 (ped bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
    }

    #[test]
    fn steal_is_the_eighth_cpu_counter() {
        let stat = "cpu  100 0 50 1000 5 0 2 345 0 0\ncpu0 50 0 25 500 2 0 1 170 0 0\n";
        assert_eq!(parse_steal_s(stat), Some(3.45));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_s().unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(x != 1);
        assert!(cpu_s().unwrap() > before);
        assert!(steal_s().unwrap() >= 0.0);
    }
}
