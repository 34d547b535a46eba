//! Process accounting from `getrusage(2)`, declared directly because the
//! workspace takes no external crates (the same way `ida-sweep` declares
//! `mallopt`).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cellbench reads `struct rusage` as laid out on 64-bit Linux");

/// CPU time, peak resident memory and minor page faults of this process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set size in MiB.
    pub max_rss_mb: f64,
    /// Minor page faults.
    pub minflt: u64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct RawUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's usage so far.
///
/// # Panics
///
/// If `getrusage` fails, which it cannot for `RUSAGE_SELF` and a valid
/// buffer.
pub fn usage() -> Usage {
    let mut raw = std::mem::MaybeUninit::<RawUsage>::uninit();
    // SAFETY: `raw` is a writable buffer with the layout of the kernel's
    // `struct rusage` on 64-bit Linux; getrusage fills all of it on
    // success, which is checked before the buffer is read.
    let raw = unsafe {
        assert_eq!(
            getrusage(RUSAGE_SELF, raw.as_mut_ptr()),
            0,
            "getrusage failed"
        );
        raw.assume_init()
    };
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&raw.ru_utime) + secs(&raw.ru_stime),
        // Linux reports ru_maxrss in KiB.
        max_rss_mb: raw.ru_maxrss as f64 / 1024.0,
        minflt: raw.ru_minflt as u64,
    }
}
