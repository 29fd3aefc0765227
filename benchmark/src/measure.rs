//! Measurement plumbing shared by every workload: the one wall-clock
//! read, the per-layer span timers of a traced run, percentiles, peak
//! resident memory and the output digest.

use std::time::{Duration, Instant};

/// The benchmark's only wall-clock read. Every timing, end-to-end or
/// per-layer, is a difference of two calls to this function.
pub fn now() -> Instant {
    // evop-lint: allow(det-wallclock) -- the benchmark measures real elapsed time around public API calls; nothing it reads feeds back into the program's inputs or outputs
    Instant::now()
}

/// Seconds elapsed since `since`.
pub fn secs_since(since: Instant) -> f64 {
    (now() - since).as_secs_f64()
}

/// The layer boundaries a traced run times, one per public function the
/// benchmark calls into. Spans do not nest, except [`Span::TopmodelRun`]
/// and [`Span::Window`], which run inside [`Span::Glue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Federation::connect`.
    Connect,
    /// `Federation::advance`.
    Advance,
    /// `Federation::request`.
    Request,
    /// `Federation::disconnect`.
    Disconnect,
    /// `CacheKey::new`.
    CacheKey,
    /// `AlertEngine::tick`.
    AlertTick,
    /// `Tsdb::ingest_registry`.
    TsdbIngest,
    /// `Tracer::drain_finished_before`.
    TraceDrain,
    /// `Router::dispatch`.
    Dispatch,
    /// `WpsServer::execute`, replayed.
    WpsExecute,
    /// `Response::json`, replayed.
    JsonEncode,
    /// `Response::json_body`, replayed.
    JsonDecode,
    /// `SosServer::get_observation`, replayed.
    SosQuery,
    /// `AssetMap::markers_in`, replayed.
    Markers,
    /// `Catalog::search`, replayed.
    CatalogSearch,
    /// `Topmodel::run` inside the GLUE closure.
    TopmodelRun,
    /// `TimeSeries::window` inside the GLUE closure.
    Window,
    /// `models::glue::glue`, closure included.
    Glue,
}

const SPANS: usize = Span::Glue as usize + 1;

/// Per-span wall time. Off (the untraced run), `time` calls straight
/// through and reads no clock.
#[derive(Debug, Clone)]
pub struct Layers {
    on: bool,
    nanos: [u64; SPANS],
}

impl Layers {
    /// Timers that record only when `on`.
    pub fn new(on: bool) -> Layers {
        Layers { on, nanos: [0; SPANS] }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `span` when recording.
    #[inline]
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = now();
        let out = f();
        self.add(span, now() - start);
        out
    }

    /// Charges `elapsed` to `span` (for spans timed by the caller).
    pub fn add(&mut self, span: Span, elapsed: Duration) {
        self.nanos[span as usize] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// Total milliseconds charged to `span`.
    pub fn ms(&self, span: Span) -> f64 {
        self.nanos[span as usize] as f64 / 1e6
    }
}

/// Percentiles a step time is reported at, lowest first, in per mille.
/// The benchmark declares p50 and p99, so the ladder stops at p99.
const LADDER_PER_MILLE: [u64; 3] = [500, 900, 990];

/// The highest percentile of the ladder with at least ten of `samples`
/// beyond it, or `None` when even the median lacks them.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    let samples = samples as u64;
    LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&q| samples * (1000 - q) >= 10 * 1000)
        .map(|&q| q as f64 / 1000.0)
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB, on Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: the load generators' hash from seed and user or request
/// number to every choice they make.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 64-bit FNV-1a, folded incrementally over everything a workload
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(99), Some(0.50));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
        for n in [20, 100, 1000, 1440, 20_000] {
            let q = tail_quantile(n).expect("enough samples");
            assert!(
                n as f64 * (1.0 - q) >= 10.0 - 1e-9,
                "p{q} of {n} leaves fewer than ten beyond"
            );
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn peak_rss_reads_positive_on_linux() {
        if cfg!(target_os = "linux") {
            let mb = peak_rss_mb().expect("VmHWM is in /proc/self/status on Linux");
            assert!(mb > 0.0, "VmHWM read {mb} MiB");
        }
    }

    #[test]
    fn layers_record_only_when_on() {
        let mut off = Layers::new(false);
        assert_eq!(off.time(Span::Connect, || 7), 7);
        assert_eq!(off.ms(Span::Connect), 0.0);
        let mut on = Layers::new(true);
        on.time(Span::Connect, || std::thread::sleep(Duration::from_millis(1)));
        assert!(on.ms(Span::Connect) >= 1.0);
        assert_eq!(on.ms(Span::Advance), 0.0);
    }
}
