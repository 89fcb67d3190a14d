//! The flight recorder: a bounded ring buffer of canonical structured
//! events with a rolling state digest.
//!
//! Every correctness claim in the workspace rests on *bit identity* —
//! thread-count invariance, `FaultPlan::none()` engine equivalence,
//! byte-identical artifacts.  When such a gate fails, comparing two final
//! `f64` bit patterns says nothing about *where* two runs first parted
//! ways.  The [`EventLog`] closes that gap: instrumented code records each
//! semantically meaningful step (a block mined, heard, released; a policy
//! decision; a fault-coin outcome; a solver bisection step) as a small
//! fixed-size [`Event`], and every event folds into a rolling splitmix64
//! **digest** of the run so far.  Periodic digest **checkpoints** survive
//! even after the ring has evicted old events, so two logs can be compared
//! with [`trace_diff`] / [`EventLog::first_divergence`]: a binary search
//! over the common checkpoints brackets the first divergent window, and
//! the retained events inside it pin the exact first divergent event.
//!
//! Cost model: a log with capacity 0 ([`EventLog::disabled`]) performs no
//! allocation at construction and each `record` call is a single branch —
//! engines keep their recording handle as `Option<Arc<EventLog>>`, so the
//! fully disabled path stays allocation-free.  Recording never consults
//! any RNG and only *reads* simulation state, so attaching a recorder
//! cannot perturb a run (regression-gated in `tests/flight_recorder.rs`).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::recorder::Recorder;

/// Initial digest value (the digest of an empty log).
pub const DIGEST_SEED: u64 = 0x5e1e_7468_f11e_57a7;

/// Maximum number of retained checkpoints; when reached, every other
/// checkpoint is dropped and the interval doubles, keeping memory bounded
/// for arbitrarily long runs.
const MAX_CHECKPOINTS: usize = 64;

/// The canonical event vocabulary of the workspace.
///
/// One flat enum across both simulation engines and the MDP solver, so a
/// single diff tool understands every log.  Payload conventions are
/// documented per variant; `f64` payloads are carried as raw bits
/// (`f64::to_bits`) so the digest is sensitive to the exact values the
/// bit-identity gates assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A block was mined. `actor` = miner, `a` = block index, `b` = height.
    Mine,
    /// A strategist heard a block. `actor` = miner, `a` = block index,
    /// `b` = hear-time bits.
    Hear,
    /// A withheld block was released. `actor` = producer, `a` = block
    /// index, `b` = release-time bits.
    Release,
    /// A policy *adopt*. `actor` = miner, `a` = private length, `b` =
    /// honest length.
    Adopt,
    /// A policy *override*. `actor` = miner, `a` = private length, `b` =
    /// honest length.
    Override,
    /// A policy *match*. `actor` = miner, `a` = private length, `b` =
    /// honest length.
    Match,
    /// A forced adopt (out-of-model branch or table fallback). `actor` =
    /// miner, `a` = block index or private length, `b` = context bits.
    ForcedAdopt,
    /// A loss coin came up drop. `a` = block index, `b` = delivery attempt.
    FaultDrop,
    /// A duplication coin queued an inert copy. `a` = block index, `b` =
    /// attempt.
    FaultDuplicate,
    /// A partition stalled a delivery. `a` = block index, `b` = attempt.
    FaultStall,
    /// A crashed miner missed a delivery. `actor` = miner, `a` = block
    /// index.
    CrashMiss,
    /// A recovered miner resynchronized via forced adopt. `actor` = miner,
    /// `a` = recovery-time bits.
    CrashResync,
    /// A mining event thinned by a crashed winner. `actor` = miner.
    Thinned,
    /// A Dinkelbach bisection step. `a` = ρ bits, `b` = iteration.
    Bisect,
    /// A value-iteration sweep finished. `a` = sweep index, `b` = residual
    /// bits.
    Sweep,
    /// A warm start was applied. `a` = cached states, `b` = context.
    WarmStart,
    /// A gossip edge delivered a block to a miner (graph propagation).
    /// `actor` = receiving miner, `a` = block index, `b` = arrival-time
    /// bits (time after release).
    EdgeDelivery,
    /// A block reached a miner through relay forwarding (two or more
    /// edges on its earliest path). `actor` = receiving miner, `a` =
    /// block index, `b` = hop count.
    RelayHop,
}

/// Every kind, in stable code order (used by summaries and tests).
pub const EVENT_KINDS: [EventKind; 18] = [
    EventKind::Mine,
    EventKind::Hear,
    EventKind::Release,
    EventKind::Adopt,
    EventKind::Override,
    EventKind::Match,
    EventKind::ForcedAdopt,
    EventKind::FaultDrop,
    EventKind::FaultDuplicate,
    EventKind::FaultStall,
    EventKind::CrashMiss,
    EventKind::CrashResync,
    EventKind::Thinned,
    EventKind::Bisect,
    EventKind::Sweep,
    EventKind::WarmStart,
    EventKind::EdgeDelivery,
    EventKind::RelayHop,
];

impl EventKind {
    /// Stable numeric code folded into the digest (1-based; never reuse
    /// or reorder codes — recorded digests depend on them).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            EventKind::Mine => 1,
            EventKind::Hear => 2,
            EventKind::Release => 3,
            EventKind::Adopt => 4,
            EventKind::Override => 5,
            EventKind::Match => 6,
            EventKind::ForcedAdopt => 7,
            EventKind::FaultDrop => 8,
            EventKind::FaultDuplicate => 9,
            EventKind::FaultStall => 10,
            EventKind::CrashMiss => 11,
            EventKind::CrashResync => 12,
            EventKind::Thinned => 13,
            EventKind::Bisect => 14,
            EventKind::Sweep => 15,
            EventKind::WarmStart => 16,
            EventKind::EdgeDelivery => 17,
            EventKind::RelayHop => 18,
        }
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Mine => "mine",
            EventKind::Hear => "hear",
            EventKind::Release => "release",
            EventKind::Adopt => "adopt",
            EventKind::Override => "override",
            EventKind::Match => "match",
            EventKind::ForcedAdopt => "forced_adopt",
            EventKind::FaultDrop => "fault_drop",
            EventKind::FaultDuplicate => "fault_duplicate",
            EventKind::FaultStall => "fault_stall",
            EventKind::CrashMiss => "crash_miss",
            EventKind::CrashResync => "crash_resync",
            EventKind::Thinned => "thinned",
            EventKind::Bisect => "bisect",
            EventKind::Sweep => "sweep",
            EventKind::WarmStart => "warm_start",
            EventKind::EdgeDelivery => "edge_delivery",
            EventKind::RelayHop => "relay_hop",
        }
    }
}

/// One recorded event, with the digest before and after folding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// 0-based position in the full event stream (not the ring).
    pub index: u64,
    /// What happened.
    pub kind: EventKind,
    /// Acting miner/worker id (0 when not applicable).
    pub actor: u32,
    /// First payload word (see [`EventKind`] conventions).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Rolling digest *before* this event folded in.
    pub pre_digest: u64,
    /// Rolling digest *after* this event folded in.
    pub post_digest: u64,
}

impl Event {
    /// Renders the event as one JSON-lines record.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"index\": {}, \"kind\": {}, \"actor\": {}, \"a\": {}, \"b\": {}, \
             \"pre_digest\": \"{:#018x}\", \"post_digest\": \"{:#018x}\"}}",
            self.index,
            crate::json::escape_string(self.kind.name()),
            self.actor,
            self.a,
            self.b,
            self.pre_digest,
            self.post_digest
        )
    }

    /// `true` if the two events describe the same step (digests excluded:
    /// two streams can reach the same step along different prefixes).
    #[must_use]
    pub fn same_step(&self, other: &Event) -> bool {
        self.kind == other.kind
            && self.actor == other.actor
            && self.a == other.a
            && self.b == other.b
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
/// `seleth-net` exports the same finalizer's counter chain; this crate
/// keeps its own copy because it has no dependencies, and an edge to
/// `seleth-net` would rewrite the workspace and `perfbench` lock files.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold one event into the rolling digest: a four-stage splitmix64 chain
/// over the previous digest and the event's full identity.
#[must_use]
pub fn fold_digest(digest: u64, kind: EventKind, actor: u32, a: u64, b: u64) -> u64 {
    let mut h = splitmix64(digest ^ kind.code().wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = splitmix64(h ^ u64::from(actor));
    h = splitmix64(h ^ a);
    splitmix64(h ^ b)
}

#[derive(Debug)]
struct LogInner {
    /// Retained events, oldest first; at most `capacity` of them.
    ring: VecDeque<Event>,
    /// Total events recorded (including evicted ones).
    count: u64,
    /// Rolling digest over *all* events (evicted ones included).
    digest: u64,
    /// `(event count, digest)` checkpoints at multiples of `interval`.
    checkpoints: Vec<(u64, u64)>,
    /// Current checkpoint spacing (doubles when `MAX_CHECKPOINTS` hit).
    interval: u64,
    /// Per-kind event totals, indexed by `code() - 1`.
    by_kind: [u64; EVENT_KINDS.len()],
}

/// A bounded flight recorder.
///
/// Thread-safe (a mutex guards the ring; recording is opt-in, so the lock
/// only exists on runs that asked for it) and cheap when disabled: with
/// capacity 0 nothing is allocated and [`EventLog::record`] returns after
/// one branch, before touching the lock.
///
/// Implements [`Recorder`], so anything that accepts `&dyn Recorder`
/// (e.g. the observed solver) can write into a flight recorder through
/// the same trait the metrics layer uses.
#[derive(Debug)]
pub struct EventLog {
    capacity: usize,
    inner: Mutex<LogInner>,
}

impl EventLog {
    /// A log retaining the last `capacity` events.  `capacity` 0 is the
    /// disabled log (equivalent to [`EventLog::disabled`]); the default
    /// checkpoint interval is 256 events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_checkpoint_interval(capacity, 256)
    }

    /// As [`EventLog::new`] with an explicit initial checkpoint spacing
    /// (tests use small intervals to exercise compaction).
    ///
    /// `interval` 0 is corrected to 1.
    #[must_use]
    pub fn with_checkpoint_interval(capacity: usize, interval: u64) -> Self {
        EventLog {
            capacity,
            inner: Mutex::new(LogInner {
                ring: VecDeque::new(),
                count: 0,
                digest: DIGEST_SEED,
                checkpoints: Vec::new(),
                interval: interval.max(1),
                by_kind: [0; EVENT_KINDS.len()],
            }),
        }
    }

    /// The disabled log: no allocation, every `record` a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Retention capacity this log was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` if this log stores events (capacity > 0).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one event.  No-op (one branch, no lock) when disabled.
    pub fn record(&self, kind: EventKind, actor: u32, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        let pre = inner.digest;
        let post = fold_digest(pre, kind, actor, a, b);
        let ev = Event {
            index: inner.count,
            kind,
            actor,
            a,
            b,
            pre_digest: pre,
            post_digest: post,
        };
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(ev);
        inner.digest = post;
        inner.count += 1;
        let code_ix = (kind.code() - 1) as usize;
        inner.by_kind[code_ix] += 1;
        if inner.count.is_multiple_of(inner.interval) {
            let cp = (inner.count, post);
            inner.checkpoints.push(cp);
            if inner.checkpoints.len() >= MAX_CHECKPOINTS {
                // Keep every other checkpoint (the even multiples of the
                // doubled interval) and halve the list.
                let doubled = inner.interval * 2;
                inner.checkpoints.retain(|&(n, _)| n % doubled == 0);
                inner.interval = doubled;
            }
        }
    }

    /// Total events recorded, including ones the ring has evicted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.lock().count
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// `true` if nothing has been recorded (or the log is disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The rolling digest over all recorded events.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.lock().digest
    }

    /// Snapshot of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.lock().ring.iter().copied().collect()
    }

    /// Snapshot of the digest checkpoints `(event count, digest)`.
    #[must_use]
    pub fn checkpoints(&self) -> Vec<(u64, u64)> {
        self.lock().checkpoints.clone()
    }

    /// Per-kind totals for every kind with at least one event.
    #[must_use]
    pub fn counts_by_kind(&self) -> Vec<(EventKind, u64)> {
        let inner = self.lock();
        EVENT_KINDS
            .iter()
            .filter_map(|&k| {
                let n = inner.by_kind[(k.code() - 1) as usize];
                (n > 0).then_some((k, n))
            })
            .collect()
    }

    /// The retained event at absolute stream index `i`, if still in the
    /// ring.
    #[must_use]
    pub fn event_at(&self, i: u64) -> Option<Event> {
        let inner = self.lock();
        let oldest = inner.count - inner.ring.len() as u64;
        if i < oldest || i >= inner.count {
            return None;
        }
        inner.ring.get((i - oldest) as usize).copied()
    }

    /// Renders the retained events as a JSON-lines document.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            // Writing to a String cannot fail.
            let _ = writeln!(out, "{}", ev.to_json_line());
        }
        out
    }

    /// Writes the JSON-lines event dump to `path`.
    ///
    /// # Errors
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// A JSON summary block (`"event_log"` convention in study JSONs):
    /// total count, final digest, and per-kind totals.  Rendered by
    /// [`crate::render_profile`] when present.
    #[must_use]
    pub fn summary_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner_pad = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let _ = writeln!(out, "{inner_pad}\"count\": {},", self.count());
        let _ = writeln!(out, "{inner_pad}\"digest\": \"{:#018x}\",", self.digest());
        let _ = writeln!(out, "{inner_pad}\"by_kind\": {{");
        let kinds = self.counts_by_kind();
        for (i, (kind, n)) in kinds.iter().enumerate() {
            let comma = if i + 1 < kinds.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{inner_pad}  {}: {n}{comma}",
                crate::json::escape_string(kind.name())
            );
        }
        let _ = writeln!(out, "{inner_pad}}}");
        let _ = write!(out, "{pad}}}");
        out
    }

    /// Locate the first event where `self` and `other` diverge.
    ///
    /// Returns `None` when the logs are identical (same count, same final
    /// digest).  Otherwise the common digest checkpoints are
    /// binary-searched for the first divergent window — divergence is
    /// persistent: once the streams differ, every later digest differs —
    /// and the retained events inside it are compared index by index.
    /// When both rings still hold the divergent event the result is
    /// `exact` and carries both sides; when the ring evicted it, the
    /// result degrades to the checkpoint-bracketed lower bound with
    /// `exact == false`.
    #[must_use]
    pub fn first_divergence(&self, other: &EventLog) -> Option<Divergence> {
        let (count_a, digest_a) = {
            let g = self.lock();
            (g.count, g.digest)
        };
        let (count_b, digest_b) = {
            let g = other.lock();
            (g.count, g.digest)
        };
        if count_a == count_b && digest_a == digest_b {
            return None;
        }

        // Common checkpoints (both logs checkpointed at that count),
        // sorted by count; prepend the implicit empty-log checkpoint.
        let cps_a = self.checkpoints();
        let cps_b = other.checkpoints();
        let mut common: Vec<(u64, u64, u64)> = vec![(0, DIGEST_SEED, DIGEST_SEED)];
        let mut j = 0usize;
        for &(n, da) in &cps_a {
            while j < cps_b.len() && cps_b[j].0 < n {
                j += 1;
            }
            if j < cps_b.len() && cps_b[j].0 == n {
                common.push((n, da, cps_b[j].1));
            }
        }
        // Binary search: digests agree on a prefix of `common` and differ
        // on the rest (persistence of divergence).
        let split = common.partition_point(|&(_, da, db)| da == db);
        let lower = common[split - 1].0; // streams agree through this count
        let upper = common
            .get(split)
            .map_or(count_a.min(count_b), |&(n, _, _)| n);

        // Scan the bracketed window in the retained rings.
        let mut fallback: Option<Divergence> = None;
        for i in lower..upper {
            match (self.event_at(i), other.event_at(i)) {
                (Some(ea), Some(eb)) => {
                    if !ea.same_step(&eb) || ea.post_digest != eb.post_digest {
                        return Some(Divergence {
                            index: i,
                            exact: true,
                            left: Some(ea),
                            right: Some(eb),
                        });
                    }
                }
                (ea, eb) => {
                    // Ring eviction: the best we can say is "inside the
                    // bracketed window, at or after i".
                    if fallback.is_none() {
                        fallback = Some(Divergence {
                            index: i,
                            exact: false,
                            left: ea,
                            right: eb,
                        });
                    }
                }
            }
        }
        if let Some(d) = fallback {
            return Some(d);
        }
        // The whole common prefix agrees event by event: one log simply
        // has extra events beyond the other.
        let i = count_a.min(count_b);
        Some(Divergence {
            index: i,
            exact: true,
            left: self.event_at(i),
            right: other.event_at(i),
        })
    }
}

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        self.is_enabled()
    }

    fn event(&self, kind: EventKind, actor: u32, a: u64, b: u64) {
        self.record(kind, actor, a, b);
    }
}

/// The outcome of [`trace_diff`]: where two event streams first part ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index of the first divergent event (exact), or the tightest
    /// known lower bound when the ring evicted the window (`exact` false).
    pub index: u64,
    /// `true` when the divergent event itself was retained and compared
    /// on both sides.
    pub exact: bool,
    /// The left log's event at `index`, if retained.
    pub left: Option<Event>,
    /// The right log's event at `index`, if retained.
    pub right: Option<Event>,
}

impl Divergence {
    /// A one-paragraph human-readable report, the payload of every
    /// bit-identity gate failure message.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let precision = if self.exact {
            "first divergent event"
        } else {
            "divergence at or after event (ring evicted the exact window)"
        };
        let _ = writeln!(out, "{precision} #{}", self.index);
        for (side, ev) in [
            ("left ", self.left.as_ref()),
            ("right", self.right.as_ref()),
        ] {
            match ev {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "  {side}: kind={} actor={} a={} b={} pre={:#018x} post={:#018x}",
                        e.kind.name(),
                        e.actor,
                        e.a,
                        e.b,
                        e.pre_digest,
                        e.post_digest
                    );
                }
                None => {
                    let _ = writeln!(out, "  {side}: (no event — stream ended or evicted)");
                }
            }
        }
        out
    }
}

/// Compare two flight recordings and report the first divergent event,
/// if any.  See [`EventLog::first_divergence`].
#[must_use]
pub fn trace_diff(left: &EventLog, right: &EventLog) -> Option<Divergence> {
    left.first_divergence(right)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-event by index.
    fn ev(i: u64) -> (EventKind, u32, u64, u64) {
        let kind = EVENT_KINDS[(i % EVENT_KINDS.len() as u64) as usize];
        (kind, (i % 7) as u32, i * 3, i ^ 0xabcd)
    }

    fn fill(log: &EventLog, n: u64) {
        for i in 0..n {
            let (k, actor, a, b) = ev(i);
            log.record(k, actor, a, b);
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::disabled();
        assert!(!log.is_enabled());
        fill(&log, 100);
        assert_eq!(log.count(), 0);
        assert_eq!(log.len(), 0);
        assert!(log.is_empty());
        assert_eq!(log.digest(), DIGEST_SEED);
        assert!(log.checkpoints().is_empty());
        assert!(log.events().is_empty());
    }

    #[test]
    fn wraparound_retains_last_capacity_events_at_every_capacity() {
        let n = 300u64;
        // Reference digest: one unbounded fold.
        let mut reference = DIGEST_SEED;
        for i in 0..n {
            let (k, actor, a, b) = ev(i);
            reference = fold_digest(reference, k, actor, a, b);
        }
        for capacity in [1usize, 2, 3, 7, 64, 299, 300, 1000] {
            let log = EventLog::with_checkpoint_interval(capacity, 16);
            fill(&log, n);
            assert_eq!(log.count(), n, "capacity {capacity}");
            assert_eq!(log.len(), capacity.min(n as usize), "capacity {capacity}");
            assert_eq!(log.digest(), reference, "digest ignores eviction");
            let events = log.events();
            // Retained events are exactly the last `len` of the stream,
            // with contiguous indices and a consistent digest chain.
            let oldest = n - events.len() as u64;
            for (off, e) in events.iter().enumerate() {
                let i = oldest + off as u64;
                assert_eq!(e.index, i);
                let (k, actor, a, b) = ev(i);
                assert_eq!((e.kind, e.actor, e.a, e.b), (k, actor, a, b));
                assert_eq!(e.post_digest, fold_digest(e.pre_digest, k, actor, a, b));
                if off > 0 {
                    assert_eq!(e.pre_digest, events[off - 1].post_digest);
                }
            }
            // event_at agrees with events() and rejects evicted indices.
            assert_eq!(log.event_at(oldest), events.first().copied());
            assert_eq!(log.event_at(n - 1), events.last().copied());
            if oldest > 0 {
                assert_eq!(log.event_at(oldest - 1), None);
            }
            assert_eq!(log.event_at(n), None);
        }
    }

    #[test]
    fn checkpoints_align_with_the_digest_chain() {
        let log = EventLog::with_checkpoint_interval(1 << 12, 8);
        fill(&log, 500);
        let cps = log.checkpoints();
        assert!(!cps.is_empty());
        let mut rolling = DIGEST_SEED;
        let mut expected = Vec::new();
        for i in 0..500u64 {
            let (k, actor, a, b) = ev(i);
            rolling = fold_digest(rolling, k, actor, a, b);
            expected.push((i + 1, rolling));
        }
        for &(n, d) in &cps {
            assert_eq!(
                expected[(n - 1) as usize],
                (n, d),
                "checkpoint at {n} matches the reference chain"
            );
        }
        // Checkpoints are strictly increasing in count.
        assert!(cps.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn checkpoint_compaction_bounds_memory_and_doubles_interval() {
        let log = EventLog::with_checkpoint_interval(4, 1);
        fill(&log, 10_000);
        let cps = log.checkpoints();
        assert!(
            cps.len() < MAX_CHECKPOINTS,
            "compaction keeps the list bounded: {}",
            cps.len()
        );
        // All surviving checkpoints are multiples of the final interval.
        let interval = log.lock().interval;
        assert!(interval > 1, "interval doubled at least once");
        assert!(cps.iter().all(|&(n, _)| n % interval == 0));
    }

    #[test]
    fn identical_logs_have_no_divergence() {
        let a = EventLog::new(64);
        let b = EventLog::new(64);
        fill(&a, 200);
        fill(&b, 200);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(trace_diff(&a, &b), None);
    }

    #[test]
    fn divergence_is_localized_exactly_when_retained() {
        for diverge_at in [0u64, 1, 5, 99, 250, 499] {
            let a = EventLog::with_checkpoint_interval(1 << 12, 16);
            let b = EventLog::with_checkpoint_interval(1 << 12, 16);
            fill(&a, 500);
            for i in 0..500u64 {
                let (k, actor, x, y) = ev(i);
                if i == diverge_at {
                    b.record(k, actor, x ^ 1, y);
                } else {
                    b.record(k, actor, x, y);
                }
            }
            let d = trace_diff(&a, &b).expect("streams differ");
            assert!(d.exact, "diverge_at {diverge_at}");
            assert_eq!(d.index, diverge_at);
            let (l, r) = (d.left.unwrap(), d.right.unwrap());
            assert_eq!(l.pre_digest, r.pre_digest, "agreed up to the event");
            assert_ne!(l.post_digest, r.post_digest);
            assert_eq!(l.a ^ 1, r.a);
            assert!(d.describe().contains(&format!("#{diverge_at}")));
        }
    }

    #[test]
    fn divergence_from_extra_events_points_past_the_shorter_log() {
        let a = EventLog::new(256);
        let b = EventLog::new(256);
        fill(&a, 100);
        fill(&b, 150);
        let d = trace_diff(&a, &b).expect("counts differ");
        assert!(d.exact);
        assert_eq!(d.index, 100);
        assert!(d.left.is_none());
        assert_eq!(d.right.unwrap().index, 100);
    }

    #[test]
    fn evicted_divergence_degrades_to_checkpoint_bounds() {
        // Tiny ring, early divergence: the event itself is long gone, but
        // the checkpoints still bracket it below the full stream length.
        let a = EventLog::with_checkpoint_interval(4, 8);
        let b = EventLog::with_checkpoint_interval(4, 8);
        fill(&a, 1000);
        for i in 0..1000u64 {
            let (k, actor, x, y) = ev(i);
            if i == 100 {
                b.record(k, actor, x ^ 1, y);
            } else {
                b.record(k, actor, x, y);
            }
        }
        let d = trace_diff(&a, &b).expect("streams differ");
        assert!(!d.exact);
        assert!(d.index <= 100, "lower bound at or before the divergence");
        // The checkpoint bracket is genuinely informative: well before the
        // end of the stream.
        assert!(d.index >= 96, "bracketed by the last agreeing checkpoint");
        assert!(d.describe().contains("evicted"));
    }

    #[test]
    fn recorder_trait_routes_into_the_log() {
        let log = EventLog::new(8);
        let rec: &dyn Recorder = &log;
        assert!(rec.enabled());
        rec.event(EventKind::Bisect, 0, 42, 7);
        assert_eq!(log.count(), 1);
        assert_eq!(log.events()[0].kind, EventKind::Bisect);
        let off: &dyn Recorder = &EventLog::disabled();
        assert!(!off.enabled());
        off.event(EventKind::Bisect, 0, 1, 2);
    }

    #[test]
    fn summary_json_parses_and_carries_counts() {
        let log = EventLog::new(32);
        log.record(EventKind::Mine, 0, 1, 1);
        log.record(EventKind::Mine, 1, 2, 2);
        log.record(EventKind::Release, 0, 1, 0);
        let doc = log.summary_json(0);
        let v = crate::json::parse_json(&doc).expect("valid json");
        assert_eq!(v.get("count").and_then(crate::JsonValue::as_f64), Some(3.0));
        let by_kind = v.get("by_kind").expect("by_kind block");
        assert_eq!(
            by_kind.get("mine").and_then(crate::JsonValue::as_f64),
            Some(2.0)
        );
        assert_eq!(
            by_kind.get("release").and_then(crate::JsonValue::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn jsonl_lines_parse() {
        let log = EventLog::new(8);
        log.record(EventKind::Hear, 3, 10, 20);
        let text = log.to_jsonl();
        let v = crate::json::parse_json(text.lines().next().expect("one line")).expect("json");
        assert_eq!(
            v.get("kind").and_then(crate::JsonValue::as_str),
            Some("hear")
        );
    }
}
