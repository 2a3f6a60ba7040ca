//! Host facts recorded with every result, and the process's peak memory.
//! Everything is read through system calls and CPU instructions, not
//! files, so the benchmark touches nothing outside its checkout.

/// What the host offered the run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Online processors (`sysconf(_SC_NPROCESSORS_ONLN)`, what `nproc`
    /// reports without affinity limits).
    pub nproc: usize,
    /// `std::thread::available_parallelism()`: what the runtime sizes its
    /// default worker pool from.
    pub available_parallelism: usize,
    /// Level-2 cache of one instance, in KiB, from CPUID (`None` when the
    /// CPU does not report it).
    pub l2_kib: Option<u64>,
    /// Level-3 cache of one instance, in KiB, from CPUID.
    pub l3_kib: Option<u64>,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `_SC_NPROCESSORS_ONLN` on Linux.
const SC_NPROCESSORS_ONLN: i32 = 84;
/// `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

impl HostFacts {
    /// Probe the host.
    pub fn probe() -> HostFacts {
        // SAFETY: `sysconf` takes an integer name and returns an integer;
        // it has no pointer arguments.
        let online = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (l2_kib, l3_kib) = cache_kib();
        HostFacts {
            nproc: usize::try_from(online).unwrap_or(available_parallelism),
            available_parallelism,
            l2_kib,
            l3_kib,
        }
    }
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable `struct rusage` of the layout the kernel
    // fills for 64-bit Linux, valid for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss as f64 / 1024.0
}

/// (L2, L3) sizes in KiB from CPUID's deterministic cache parameters
/// (leaf 4 on Intel, leaf 0x8000_001D on AMD).
#[cfg(target_arch = "x86_64")]
fn cache_kib() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::__cpuid_count;
    // Leaves 0 and 0x8000_0000 report the highest supported standard and
    // extended leaves; the cache leaves are only queried within them.
    let (max_std, max_ext) = (__cpuid_count(0, 0).eax, __cpuid_count(0x8000_0000, 0).eax);
    let leaf = if max_std >= 4 {
        4
    } else if max_ext >= 0x8000_001D {
        0x8000_001D
    } else {
        return (None, None);
    };
    let (mut l2, mut l3) = (None, None);
    for sub in 0..16 {
        // Out-of-range subleaves report cache type 0, which ends the walk.
        let r = __cpuid_count(leaf, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let kib = ways * partitions * line * sets / 1024;
        match level {
            2 => l2 = Some(kib),
            3 => l3 = Some(kib),
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_kib() -> (Option<u64>, Option<u64>) {
    (None, None)
}
