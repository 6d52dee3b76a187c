//! Process accounting and machine description read from `/proc` and `/sys`
//! (Linux only, like the box the bounds were measured on).

use std::process::Command;

use crate::json::Json;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` is 100
/// on every Linux ABI Rust targets; `sysconf(_SC_CLK_TCK)` would need libc.
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds this process has used, all threads.
pub fn cpu_times_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After comm: state is field 3, utime is 14, stime is 15.
    let mut tick = |nth: usize| -> f64 {
        fields
            .nth(nth)
            .and_then(|f| f.parse::<f64>().ok())
            .expect("utime/stime field")
    };
    let utime = tick(11);
    let stime = tick(0);
    (utime / USER_HZ, stime / USER_HZ)
}

/// CPU seconds (user + system) this process has used on all its threads, at
/// the clock's nanosecond resolution; `/proc/self/stat` only ticks at 10 ms,
/// too coarse for one step.
pub fn process_cpu_s() -> f64 {
    // `struct timespec` of the 64-bit Linux ABIs (see the `compile_error!`
    // in main.rs); `libc` is not among the offline crates.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the C
    // library expects on this target, and the call retains no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in kB.
pub fn vm_hwm_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line")
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Where and with what the numbers were taken.
pub fn environment() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "l2",
            Json::Str(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cache/index2/size",
            )),
        ),
        (
            "l3",
            Json::Str(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cache/index3/size",
            )),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line_of(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_this_process() {
        let (u0, s0) = super::cpu_times_s();
        assert!(u0 >= 0.0 && s0 >= 0.0);
        // Burning CPU moves both clocks forward.
        let c0 = super::process_cpu_s();
        let mut x = 0u64;
        while super::process_cpu_s() - c0 < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (u1, s1) = super::cpu_times_s();
        assert!(u1 + s1 >= u0 + s0);
        assert!(super::vm_hwm_kb() > 100.0);
    }
}
