//! Point-in-time registry captures: their text rendering and the one
//! binary encoding they travel in.

use std::fmt::Write as _;

use crate::events::{EventRecord, EVENT_WORDS};
use crate::{bucket_upper_bound, HISTOGRAM_BUCKETS};

/// The state of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`crate::bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of recorded samples (saturating: the buckets of a
    /// decoded snapshot are whatever the wire said).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0, |n, &b| n.saturating_add(b))
    }

    /// Mean sample value, or 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the
    /// inclusive upper edge of the first bucket whose cumulative count
    /// reaches `q * count`. Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(self.buckets.len().saturating_sub(1))
    }

    /// Upper bound of the highest non-empty bucket (approximate max).
    pub fn max_bound(&self) -> u64 {
        self.buckets.iter().rposition(|&n| n > 0).map(bucket_upper_bound).unwrap_or(0)
    }

    /// Median estimate — [`HistogramSnapshot::quantile`] at 0.50.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Bucket-wise sum of two histograms (shorter bucket vectors are
    /// treated as zero-padded). Used by [`crate::ClusterSnapshot`] to
    /// merge per-node histograms; log₂ buckets make this exact.
    pub fn merged_with(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let mut buckets = vec![0u64; len];
        for (i, slot) in buckets.iter_mut().enumerate() {
            let side = |h: &HistogramSnapshot| h.buckets.get(i).copied().unwrap_or(0);
            *slot = side(self).saturating_add(side(other));
        }
        HistogramSnapshot {
            name: self.name.clone(),
            sum: self.sum.wrapping_add(other.sum),
            buckets,
        }
    }
}

/// A consistent-enough capture of every instrument in a [`crate::Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Control-plane events from the node's journal, in node-sequence
    /// order.
    pub events: Vec<EventRecord>,
}

impl Snapshot {
    /// Value of a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Value of a gauge by name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Number of instruments with at least one recorded event (counters
    /// and gauges with a non-zero value, histograms with samples).
    pub fn non_zero_count(&self) -> usize {
        self.counters.iter().filter(|(_, v)| *v != 0).count()
            + self.gauges.iter().filter(|(_, v)| *v != 0).count()
            + self.histograms.iter().filter(|h| h.count() > 0).count()
    }

    /// Human-readable dump: one line per counter/gauge, and a
    /// count/mean/p50/p99/max line per histogram. Latency histograms
    /// (named `*_ns`) render their statistics in microseconds.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<44} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<44} {v}");
        }
        for h in &self.histograms {
            let (scale, unit) = if h.name.ends_with("_ns") { (1000.0, "us") } else { (1.0, "") };
            let fmt = |v: u64| {
                if scale == 1.0 {
                    format!("{v}")
                } else {
                    format!("{:.1}{unit}", v as f64 / scale)
                }
            };
            let _ = writeln!(
                out,
                "{:<44} count={} mean={} p50={} p95={} p99={} max<={}",
                h.name,
                h.count(),
                fmt(h.mean()),
                fmt(h.p50()),
                fmt(h.p95()),
                fmt(h.p99()),
                fmt(h.max_bound()),
            );
        }
        out
    }

    /// Sums two snapshots instrument-by-instrument: counters and gauges
    /// add, histograms add bucket-wise. Instruments present in only one
    /// side pass through. Commutative and associative, which is what
    /// makes [`crate::ClusterSnapshot::merged`] order-independent.
    pub fn merged_with(&self, other: &Snapshot) -> Snapshot {
        fn merge_by_name<V: Copy, F: Fn(V, V) -> V>(
            a: &[(String, V)],
            b: &[(String, V)],
            add: F,
        ) -> Vec<(String, V)> {
            let mut out: Vec<(String, V)> = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                match (a.get(i), b.get(j)) {
                    (Some((an, av)), Some((bn, bv))) => match an.cmp(bn) {
                        std::cmp::Ordering::Less => {
                            out.push((an.clone(), *av));
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push((bn.clone(), *bv));
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push((an.clone(), add(*av, *bv)));
                            i += 1;
                            j += 1;
                        }
                    },
                    (Some((an, av)), None) => {
                        out.push((an.clone(), *av));
                        i += 1;
                    }
                    (None, Some((bn, bv))) => {
                        out.push((bn.clone(), *bv));
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            out
        }

        let counters =
            merge_by_name(&self.counters, &other.counters, |a: u64, b| a.wrapping_add(b));
        let gauges = merge_by_name(&self.gauges, &other.gauges, |a: i64, b| a.wrapping_add(b));

        let mut histograms: Vec<HistogramSnapshot> = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.histograms.len() || j < other.histograms.len() {
            match (self.histograms.get(i), other.histograms.get(j)) {
                (Some(a), Some(b)) => match a.name.cmp(&b.name) {
                    std::cmp::Ordering::Less => {
                        histograms.push(a.clone());
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        histograms.push(b.clone());
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        histograms.push(a.merged_with(b));
                        i += 1;
                        j += 1;
                    }
                },
                (Some(a), None) => {
                    histograms.push(a.clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    histograms.push(b.clone());
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }

        // Events merge as a bag union in the canonical clock-free order,
        // which keeps the pairwise merge commutative and associative.
        let mut events: Vec<EventRecord> =
            self.events.iter().chain(other.events.iter()).cloned().collect();
        events.sort_by_key(|e| e.causal_key());

        Snapshot { counters, gauges, histograms, events }
    }

    /// Encodes the snapshot into the self-describing binary form a node
    /// answers the snapshot request with and the cluster aggregator
    /// consumes. The format is versioned and hand-rolled so the metrics
    /// crate stays dependency-free.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, v) in &self.counters {
            put_str(&mut out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (name, v) in &self.gauges {
            put_str(&mut out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for h in &self.histograms {
            put_str(&mut out, &h.name);
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for b in &h.buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        // The event journal rides along as fixed-width word records.
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for e in &self.events {
            for w in e.to_words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Decodes [`Snapshot::to_bytes`]. The body comes off a socket: every
    /// length is bounds-checked, a bucket vector longer than a histogram
    /// has buckets is refused, and so are bytes after the last section, so
    /// a truncated, corrupt or padded body is an error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotDecodeError> {
        struct Cursor<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
                if self.buf.len() - self.pos < n {
                    return Err(SnapshotDecodeError::Truncated);
                }
                let out = &self.buf[self.pos..self.pos + n];
                self.pos += n;
                Ok(out)
            }
            fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn str(&mut self) -> Result<String, SnapshotDecodeError> {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                String::from_utf8(raw.to_vec()).map_err(|_| SnapshotDecodeError::BadString)
            }
        }

        let mut c = Cursor { buf: bytes, pos: 0 };
        if c.u32()? != SNAPSHOT_MAGIC {
            return Err(SnapshotDecodeError::BadMagic);
        }
        let version = c.take(1)?[0];
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError::BadVersion);
        }

        let n = c.u32()? as usize;
        let mut counters = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = c.str()?;
            counters.push((name, c.u64()?));
        }
        let n = c.u32()? as usize;
        let mut gauges = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = c.str()?;
            gauges.push((name, c.u64()? as i64));
        }
        let n = c.u32()? as usize;
        let mut histograms = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = c.str()?;
            let sum = c.u64()?;
            let blen = c.u32()? as usize;
            if blen > HISTOGRAM_BUCKETS {
                return Err(SnapshotDecodeError::TooManyBuckets);
            }
            let mut buckets = Vec::with_capacity(blen);
            for _ in 0..blen {
                buckets.push(c.u64()?);
            }
            histograms.push(HistogramSnapshot { name, sum, buckets });
        }
        let n = c.u32()? as usize;
        let mut events = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let mut words = [0u64; EVENT_WORDS];
            for w in words.iter_mut() {
                *w = c.u64()?;
            }
            events.push(EventRecord::from_words(&words));
        }
        if c.pos != bytes.len() {
            return Err(SnapshotDecodeError::TrailingBytes);
        }
        Ok(Snapshot { counters, gauges, histograms, events })
    }
}

const SNAPSHOT_MAGIC: u32 = 0x544D_5301; // "TMS" + format version tag
const SNAPSHOT_VERSION: u8 = 2;

/// Why [`Snapshot::from_bytes`] rejected a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// Leading magic did not match.
    BadMagic,
    /// Unknown format version.
    BadVersion,
    /// Body ended before a declared length was satisfied.
    Truncated,
    /// A name was not valid UTF-8.
    BadString,
    /// A histogram declared more buckets than [`HISTOGRAM_BUCKETS`].
    TooManyBuckets,
    /// Bytes follow the last section.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDecodeError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotDecodeError::BadVersion => write!(f, "snapshot: unsupported version"),
            SnapshotDecodeError::Truncated => write!(f, "snapshot: truncated body"),
            SnapshotDecodeError::BadString => write!(f, "snapshot: non-UTF-8 name"),
            SnapshotDecodeError::TooManyBuckets => {
                write!(f, "snapshot: a histogram with more than {HISTOGRAM_BUCKETS} buckets")
            }
            SnapshotDecodeError::TrailingBytes => {
                write!(f, "snapshot: bytes after the event section")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn quantiles_from_buckets() {
        let r = Registry::new();
        let h = r.histogram("h");
        // 90 samples near 100 (bucket 7, bound 127), 10 near 5000
        // (bucket 13, bound 8191).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count(), 100);
        assert_eq!(hs.quantile(0.50), 127);
        assert_eq!(hs.quantile(0.99), 8191);
        assert_eq!(hs.max_bound(), 8191);
        assert_eq!(hs.mean(), (90 * 100 + 10 * 5000) / 100);
    }

    #[test]
    fn text_renders() {
        let r = Registry::new();
        r.counter("ops.total").add(3);
        r.gauge("queue.depth").set(-1);
        r.histogram("rpc.latency_ns").record(1500);
        let snap = r.snapshot();

        let text = snap.to_text();
        assert!(text.contains("ops.total"), "{text}");
        assert!(text.contains("count=1"), "{text}");
        assert!(text.contains("p95="), "{text}");
        // _ns histograms render in microseconds.
        assert!(text.contains("us"), "{text}");
    }

    #[test]
    fn named_quantiles_match_quantile() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in 0..100u64 {
            h.record(v * 10);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.p50(), hs.quantile(0.50));
        assert_eq!(hs.p95(), hs.quantile(0.95));
        assert_eq!(hs.p99(), hs.quantile(0.99));
        assert!(hs.p50() <= hs.p95() && hs.p95() <= hs.p99());
    }

    #[test]
    fn quantiles_at_edge_buckets() {
        // Empty histogram: everything is 0.
        let empty = HistogramSnapshot { name: "e".into(), sum: 0, buckets: vec![0; 65] };
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p95(), 0);
        assert_eq!(empty.p99(), 0);

        // All samples in the zero bucket (bucket 0, bound 0).
        let r = Registry::new();
        let h = r.histogram("zeros");
        for _ in 0..10 {
            h.record(0);
        }
        let snap = r.snapshot();
        let zeros = snap.histogram("zeros").unwrap();
        assert_eq!(zeros.p50(), 0);
        assert_eq!(zeros.p99(), 0);

        // A sample in the top bucket (u64::MAX) dominates high quantiles.
        let top = r.histogram("top");
        top.record(u64::MAX);
        top.record(1);
        let snap = r.snapshot();
        let ts = snap.histogram("top").unwrap();
        assert_eq!(ts.p50(), 1);
        assert_eq!(ts.p99(), u64::MAX);
        assert_eq!(ts.max_bound(), u64::MAX);

        // q clamping: out-of-range requests behave as 0.0 / 1.0.
        assert_eq!(ts.quantile(-1.0), 1);
        assert_eq!(ts.quantile(2.0), u64::MAX);
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let r = Registry::new();
        r.counter("ops.total").add(7);
        r.gauge("depth").set(-3);
        let h = r.histogram("lat_ns");
        h.record(0);
        h.record(12345);
        h.record(u64::MAX);
        r.events().emit(crate::EventKind::Sealed, 3, 1, 99);
        r.events().emit(crate::EventKind::HoleFilled, 3, 0, 17);
        let snap = r.snapshot();
        assert_eq!(snap.events.len(), 2);
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        assert_eq!(Snapshot::from_bytes(&[]), Err(SnapshotDecodeError::Truncated));
        assert_eq!(Snapshot::from_bytes(&[0xFF; 16]), Err(SnapshotDecodeError::BadMagic));
        let mut bytes = Snapshot::default().to_bytes();
        for version in [0, 1, 99] {
            bytes[4] = version;
            assert_eq!(Snapshot::from_bytes(&bytes), Err(SnapshotDecodeError::BadVersion));
        }
        let good = {
            let r = Registry::new();
            r.counter("a").inc();
            r.snapshot().to_bytes()
        };
        // Any prefix truncation fails cleanly.
        for cut in 0..good.len() {
            assert!(Snapshot::from_bytes(&good[..cut]).is_err(), "cut={cut}");
        }
        assert!(Snapshot::from_bytes(&good).is_ok());

        // A clean body with anything after it is not a clean body.
        let padded = [&good[..], &[0u8]].concat();
        assert_eq!(Snapshot::from_bytes(&padded), Err(SnapshotDecodeError::TrailingBytes));

        // One histogram `h` with `buckets`, hand-encoded.
        let body = |buckets: &[u64]| {
            let mut b = Snapshot::default().to_bytes();
            b.truncate(5 + 4 + 4); // magic, version, no counters, no gauges
            b.extend(1u32.to_le_bytes());
            b.extend(1u32.to_le_bytes());
            b.push(b'h');
            b.extend(0u64.to_le_bytes()); // sum
            b.extend((buckets.len() as u32).to_le_bytes());
            buckets.iter().for_each(|n| b.extend(n.to_le_bytes()));
            b.extend(0u32.to_le_bytes()); // no events
            b
        };
        // More buckets than a histogram has: refused as such, all present.
        let long = body(&[1; HISTOGRAM_BUCKETS + 1]);
        assert_eq!(Snapshot::from_bytes(&long), Err(SnapshotDecodeError::TooManyBuckets));
        assert!(Snapshot::from_bytes(&body(&[1; HISTOGRAM_BUCKETS])).is_ok());

        // Bucket counts that overflow a u64 when summed decode, and every
        // sum over them saturates instead of panicking.
        let huge = Snapshot::from_bytes(&body(&[u64::MAX, u64::MAX])).unwrap();
        let h = huge.histogram("h").unwrap();
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.p99(), bucket_upper_bound(0));
        assert_eq!(h.merged_with(h).buckets, vec![u64::MAX, u64::MAX]);
        assert_eq!(huge.merged_with(&huge).histogram("h").unwrap().count(), u64::MAX);
        assert!(huge.to_text().contains("count=18446744073709551615"));
    }

    #[test]
    fn merged_with_passes_through_disjoint_instruments() {
        let a = {
            let r = Registry::new();
            r.counter("only.a").add(1);
            r.snapshot()
        };
        let b = {
            let r = Registry::new();
            r.counter("only.b").add(2);
            r.snapshot()
        };
        let m = a.merged_with(&b);
        assert_eq!(m.counter("only.a"), 1);
        assert_eq!(m.counter("only.b"), 2);
        // Names stay sorted so repeated merges stay canonical.
        let names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn non_zero_count_counts_active_instruments() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("b"); // registered but never incremented
        r.gauge("c").set(2);
        r.histogram("d").record(1);
        r.histogram("e"); // empty
        assert_eq!(r.snapshot().non_zero_count(), 3);
    }
}
