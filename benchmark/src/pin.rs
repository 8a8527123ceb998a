//! Pinning this process, and the children it spawns, to one CPU.
//!
//! A vCPU of the reference box comes back from idle in either clock state
//! at random, so a child process started on an idle vCPU runs in a state
//! unrelated to the one `calib` measures on the harness's own. Confined
//! to the harness's CPU, harness and child take turns on a vCPU that never
//! idles, the state carries over, and the compensation applies to the
//! child as well: ten-run spread of `cli-pipeline`'s `wall_s` fell from
//! 7-15 % to about 3 %.

/// A `cpu_set_t`: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts this process (and, by inheritance, every child it spawns
/// from now on) to the CPU it is running on. Returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: sched_getcpu takes no arguments and only reads scheduler state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&c| c < 1024)
        .ok_or_else(|| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live 128-byte mask and its exact size is passed,
    // so the kernel reads nothing beyond it; pid 0 names this process.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
