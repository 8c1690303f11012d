//! What the benchmark needs from the host: CPU placement, process CPU
//! time, peak memory, and the environment header. Linux only; the
//! three libc calls are declared here so the package needs no crate
//! the container does not have.

use std::process::Command;

/// Room for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
type CpuMask = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// The CPUs the calling thread may run on, lowest first; empty if the
/// kernel refuses to say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread — and every thread it spawns afterwards
/// — to `cpus`. Returns false (and changes nothing) if the kernel
/// refuses or `cpus` is empty or out of range.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        if c >= mask.len() * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    if cpus.is_empty() {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// User plus system CPU seconds this process has consumed, all threads.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the x86-64 /
    // aarch64 Linux layout (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The value in kB of a `Name:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// The CPU's model name from `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment guards recorded in every result header.
#[derive(Debug, Clone)]
pub struct Env {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    /// Whether the AEAD engines run on AES-NI and PCLMULQDQ, as the
    /// library itself decides it.
    pub hw_aes: bool,
}

impl Env {
    pub fn detect() -> Env {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Env {
            // The driver's checkout is not a git repository. A tree
            // with uncommitted changes is not the commit it names.
            git_sha: command_line("git", &["rev-parse", "--short=12", "HEAD"]).map_or_else(
                || "unknown".into(),
                |sha| match command_line("git", &["status", "--porcelain"]) {
                    Some(changes) if changes.is_empty() => sha,
                    _ => sha + "-dirty",
                },
            ),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            nproc: allowed_cpus().len().max(1),
            cpu_model: parse_cpu_model(&cpuinfo),
            hw_aes: empi_aead::aes::hardware_acceleration_available(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parser_reads_kb_fields() {
        let s = "Name:\tx\nVmPeak:\t  123456 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(s, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(s, "VmRSS"), Some(1000));
        assert_eq!(parse_status_kb(s, "VmSwap"), None);
        // A field that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t 5 kB\n", "VmHWM"), None);
        assert_eq!(parse_status_kb("VmHWM:\t lots\n", "VmHWM"), None);
    }

    #[test]
    fn cpuinfo_parser_finds_the_model() {
        let s = "processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\nflags\t\t: fpu aes\n";
        assert_eq!(parse_cpu_model(s), "Test CPU @ 2.0GHz");
        assert_eq!(parse_cpu_model("flags\t: fpu\n"), "unknown");
        assert_eq!(parse_cpu_model(""), "unknown");
    }

    #[test]
    fn live_proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > a);
    }

    #[test]
    fn affinity_round_trips_and_rejects_nonsense() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        assert!(set_affinity(&before[..1]));
        assert_eq!(allowed_cpus(), before[..1]);
        assert!(set_affinity(&before));
        assert_eq!(allowed_cpus(), before);
        assert!(!set_affinity(&[]));
        assert!(!set_affinity(&[1 << 20]));
    }
}
