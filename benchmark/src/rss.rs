//! Peak resident memory of this process and of the children it waited for.

/// `VmHWM` of this process, in MiB, from `/proc/self/status`.
pub fn own_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Resets this process's `VmHWM` to its current resident set, so the next
/// reading is the peak since now. Fails where `/proc/self/clear_refs` is
/// not writable; the caller then falls back to the process-wide peak.
pub fn reset_own_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The largest peak resident set among the children this process has
/// waited for so far, in MiB (`ru_maxrss` of `RUSAGE_CHILDREN`, which
/// Linux reports in KiB).
pub fn children_peak_mb() -> Result<f64, String> {
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // 64-bit Linux defines (144 bytes, checked by the test below), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage(RUSAGE_CHILDREN): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(usage.ru_maxrss as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(own_peak_mb().unwrap() > 0.5);
    }

    #[test]
    fn resetting_the_high_water_mark_forgets_a_freed_allocation() {
        let before = own_peak_mb().unwrap();
        let mut big = vec![0u8; 64 << 20];
        for page in big.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&big);
        drop(big);
        assert!(own_peak_mb().unwrap() > before + 60.0);
        if reset_own_peak().is_ok() {
            assert!(own_peak_mb().unwrap() < before + 30.0);
        }
    }

    #[test]
    fn rusage_layout_and_children_high_water_mark() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        let before = children_peak_mb().unwrap();
        let status = std::process::Command::new("true").status().unwrap();
        assert!(status.success());
        let after = children_peak_mb().unwrap();
        assert!(after >= before && after > 0.0);
    }
}
