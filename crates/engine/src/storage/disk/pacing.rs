//! I/O pacing: the modeled storage device a throttled catalog sleeps to.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Bandwidth/latency pacing for reads and writes, used to emulate the
/// paper's measured disk (519.8 MB/s read, 358.9 MB/s write, 175 µs
/// latency) on hardware that is much faster.
///
/// Pacing models *one* storage device per catalog: a shared read channel
/// and a shared write channel. Concurrent operations reserve back-to-back
/// slots on their channel, so N parallel reads share `read_bps` instead of
/// each getting the full bandwidth — multi-lane refresh timings therefore
/// reflect genuine overlap (reads vs writes vs compute), not bandwidth
/// multiplication. Each operation sleeps until its reserved slot ends
/// (`latency + bytes / bandwidth` after the channel frees); if the real
/// I/O was slower than the model, no extra delay is added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throttle {
    /// Modeled read bandwidth, bytes/second.
    pub read_bps: f64,
    /// Modeled write bandwidth, bytes/second.
    pub write_bps: f64,
    /// Fixed per-operation latency, seconds.
    pub latency_s: f64,
}

impl Throttle {
    /// The disk measured in the paper's experimental environment (§VI-A).
    pub fn paper_disk() -> Self {
        Throttle {
            read_bps: 519.8e6,
            write_bps: 358.9e6,
            latency_s: 175e-6,
        }
    }

    /// A fast throttle for tests: high bandwidth, zero latency.
    pub fn fast() -> Self {
        Throttle {
            read_bps: 64e9,
            write_bps: 64e9,
            latency_s: 0.0,
        }
    }
}

/// A catalog's pacer: the optional [`Throttle`] plus per-direction
/// channel reservations backing its shared-device model — the instant
/// at which each channel next becomes free. Unthrottled, pacing is a
/// no-op.
#[derive(Debug)]
pub(super) struct Pacer {
    throttle: Option<Throttle>,
    read_free: Mutex<Instant>,
    write_free: Mutex<Instant>,
}

impl Pacer {
    pub(super) fn new(throttle: Option<Throttle>) -> Self {
        let now = Instant::now();
        Pacer {
            throttle,
            read_free: Mutex::new(now),
            write_free: Mutex::new(now),
        }
    }

    /// Paces a read of `bytes` that began at `started`.
    pub(super) fn read(&self, started: Instant, bytes: u64) {
        if let Some(t) = self.throttle {
            Self::pace(&self.read_free, started, bytes, t.read_bps, t.latency_s);
        }
    }

    /// Paces a write of `bytes` that began at `started`.
    pub(super) fn write(&self, started: Instant, bytes: u64) {
        if let Some(t) = self.throttle {
            Self::pace(&self.write_free, started, bytes, t.write_bps, t.latency_s);
        }
    }

    /// Reserves a slot of `latency + bytes / bps` on `channel` starting no
    /// earlier than `started`, then sleeps until the slot ends.
    fn pace(channel: &Mutex<Instant>, started: Instant, bytes: u64, bps: f64, latency_s: f64) {
        let duration = Duration::from_secs_f64(latency_s + bytes as f64 / bps);
        let target = {
            let mut free_at = channel.lock();
            let begin = (*free_at).max(started);
            *free_at = begin + duration;
            *free_at
        };
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
    }
}
