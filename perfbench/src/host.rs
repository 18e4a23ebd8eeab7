//! Host facts and the roofline probes.
//!
//! The roofline is measured on the host the run uses: the peak of the
//! dispatched 4×16 f32 tile on L1-resident panels (through
//! `gemm_packed_f32`, one thread) and streaming bandwidth (a triad over
//! arrays far larger than the last-level cache, one thread). Both run
//! before and after each workload so host drift shows.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use patdnn_tensor::kernels::{
    active_kernel, active_variant, gemm_packed_f32, pack_a_f32, pack_b_f32, packed_a_len,
    packed_b_len,
};

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel_variant() -> &'static str {
    active_variant().label()
}

/// The commit the benchmark runs on, when the checkout is a git
/// repository; `unknown` otherwise.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One roofline measurement.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Single-thread f32 GFLOP/s of the dispatched tile.
    pub peak_gflops: f64,
    /// Single-thread streaming bandwidth, GB/s.
    pub stream_gbps: f64,
}

impl Roofline {
    pub fn measure() -> Roofline {
        Roofline {
            peak_gflops: peak_gflops(),
            stream_gbps: stream_gbps(),
        }
    }

    /// Attainable GFLOP/s at `intensity` FLOP/byte on `threads` cores.
    pub fn attainable(&self, intensity: f64, threads: usize) -> f64 {
        (self.peak_gflops * threads as f64).min(self.stream_gbps * threads as f64 * intensity)
    }
}

fn peak_gflops() -> f64 {
    // 16×64 · 64×64: A 4 KiB + B 16 KiB + C 4 KiB stay in L1.
    let (m, n, k) = (16, 64, 64);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.01).collect();
    let mut ap = vec![0.0; packed_a_len(m, k)];
    let mut bp = vec![0.0; packed_b_len(k, n)];
    pack_a_f32(m, k, &a, k, &mut ap);
    pack_b_f32(k, n, &b, n, &mut bp);
    let mut c = vec![0.0f32; m * n];
    let kernel = active_kernel();
    let calls = 5000;
    let flops = 2.0 * (m * n * k) as f64 * calls as f64;
    let mut rates = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..calls {
            gemm_packed_f32(kernel, m, n, k, black_box(&ap), black_box(&bp), &mut c, n);
        }
        rates.push(flops / start.elapsed().as_secs_f64() / 1e9);
        black_box(&c);
    }
    // A peak is the best the host delivers; slower reps are
    // interference.
    rates.into_iter().fold(0.0, f64::max)
}

fn stream_gbps() -> f64 {
    // Three 8 MiB arrays: well past L2, and past a shared L3 slice.
    let len = 2 << 20;
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let mut a = vec![0.0f32; len];
    let mut rates = Vec::new();
    for rep in 0..7 {
        let s = black_box(0.5 + rep as f32);
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&a);
        rates.push((3 * len * 4) as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    rates.into_iter().fold(0.0, f64::max)
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Resident set size of this process, MiB, from `/proc/self/status`.
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hands freed heap pages back to the OS. glibc keeps them otherwise, so
/// the resident set after a large set-up (VGG-16's dense network alone
/// is 59 MB) would read 180–240 MiB from run to run depending on which
/// chunks it happened to retain.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer from the caller and only
        // walks glibc's own heap under its own locks; it is safe to call
        // from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Samples the resident set every 20 ms on a thread of its own until
/// stopped; reports the peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kib: Arc<AtomicU64>,
    join: Option<JoinHandle<()>>,
}

impl RssSampler {
    /// Starts sampling, after releasing freed heap pages.
    pub fn start() -> RssSampler {
        release_freed_memory();
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kib = Arc::new(AtomicU64::new(0));
        let join = {
            let (stop, peak_kib) = (Arc::clone(&stop), Arc::clone(&peak_kib));
            std::thread::spawn(move || loop {
                if let Some(mb) = rss_mb() {
                    peak_kib.fetch_max((mb * 1024.0) as u64, Ordering::Relaxed);
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            })
        };
        RssSampler {
            stop,
            peak_kib,
            join: Some(join),
        }
    }

    /// Stops the sampler and returns the peak, MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.join().expect("rss sampler thread panicked");
        }
        self.peak_kib.load(Ordering::Relaxed) as f64 / 1024.0
    }
}
