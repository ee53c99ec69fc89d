//! A calendar (timing-wheel) event queue for allocation-free hot loops.
//!
//! [`CalendarQueue`] is the specialized sibling of the generic
//! [`crate::EventQueue`]: events are packed into single `u128` keys —
//! `time (48 bits) | insertion seq (32 bits) | payload (48 bits)` — and
//! bucketed by time into a rolling wheel of slots, giving O(1) schedule
//! and near-O(1) pop with entries that are one register wide. Ordering is
//! the full `u128` comparison, whose `(time, seq)` prefix is the exact
//! `(time, insertion order)` total order of [`crate::EventQueue`] (the
//! payload bits can never influence ordering because `seq` is unique), so
//! the two queues pop any identical schedule in the identical sequence —
//! property-tested in this module.
//!
//! Slots are `Vec<u128>` buckets reused across wheel wraps: after warm-up
//! the queue performs no allocation in steady state. Events beyond the
//! wheel horizon wait in a small overflow heap and are folded into slots
//! as the horizon rolls forward.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel slots (must be a power of two).
const SLOTS: usize = 1024;
/// log2 of the slot width: each slot spans 1024 us (~1 ms).
const SLOT_SHIFT: u32 = 10;

const TIME_BITS: u32 = 48;
const SEQ_BITS: u32 = 32;
const PAYLOAD_BITS: u32 = 48;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

/// A time-ordered queue of `u128`-packed events with FIFO tie-breaking.
///
/// Payloads are caller-defined 48-bit values (an event tag plus small
/// indices); times are capped at 2⁴⁸ µs (~8.9 simulated years) and one
/// queue instance supports 2³² scheduled events — both far beyond any
/// serving window, and debug-asserted.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Rolling buckets; slot `s` holds events whose `at >> SLOT_SHIFT`
    /// is congruent to `s` and within the current horizon.
    slots: Vec<Vec<u128>>,
    /// Events of the current slot, sorted descending (pop takes the back).
    active: Vec<u128>,
    /// Events beyond the wheel horizon, min-first.
    overflow: BinaryHeap<Reverse<u128>>,
    /// Slot index (absolute, not wrapped) the active bucket belongs to.
    cur_slot: u64,
    /// Events currently stored in `slots` (not `active`, not `overflow`).
    in_slots: usize,
    now: SimTime,
    seq: u64,
    processed: u64,
    peak: usize,
    pending: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: vec![Vec::new(); SLOTS],
            active: Vec::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            in_slots: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak: 0,
            pending: 0,
        }
    }

    /// An empty queue whose active bucket can hold `n` events without
    /// reallocating.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut q = Self::new();
        q.active.reserve(n);
        q
    }

    /// Current simulation time (time of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Largest number of events that were pending at once.
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    #[inline]
    fn pack(at: SimTime, seq: u64, payload: u64) -> u128 {
        (u128::from(at.micros()) << (SEQ_BITS + PAYLOAD_BITS))
            | (u128::from(seq) << PAYLOAD_BITS)
            | u128::from(payload)
    }

    #[inline]
    fn unpack(key: u128) -> (SimTime, u64) {
        (
            SimTime((key >> (SEQ_BITS + PAYLOAD_BITS)) as u64),
            key as u64 & PAYLOAD_MASK,
        )
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds: scheduling into the past, a payload above 48 bits,
    /// a time above 2⁴⁸ µs, or more than 2³² schedules on one queue.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: u64) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        debug_assert!(payload <= PAYLOAD_MASK, "payload exceeds 48 bits");
        debug_assert!(at.micros() < 1 << TIME_BITS, "time exceeds 48 bits");
        debug_assert!(self.seq < u64::from(u32::MAX), "seq exceeds 32 bits");
        let key = Self::pack(at, self.seq, payload);
        self.seq += 1;
        self.insert(key);
    }

    /// File a packed key into the live bucket, the wheel or the overflow
    /// heap by its time.
    #[inline]
    fn insert(&mut self, key: u128) {
        self.pending += 1;
        self.peak = self.peak.max(self.pending);
        let slot = Self::unpack(key).0.micros() >> SLOT_SHIFT;
        if slot == self.cur_slot {
            // Into the live bucket: sorted (descending) insert.
            let pos = self.active.partition_point(|&k| k > key);
            self.active.insert(pos, key);
        } else if slot < self.cur_slot + SLOTS as u64 {
            self.slots[(slot as usize) & (SLOTS - 1)].push(key);
            self.in_slots += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Schedule `payload` after `delay` from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, payload: u64) {
        self.schedule(self.now + delay, payload);
    }

    /// Advance the wheel until `active` holds the next bucket's events.
    #[cold]
    fn advance(&mut self) {
        debug_assert!(self.active.is_empty());
        loop {
            if self.in_slots == 0 {
                // Nothing on the wheel: jump the horizon to the first
                // overflow event (or give up — pop() handles empty).
                let Some(&Reverse(min)) = self.overflow.peek() else {
                    return;
                };
                let (at, _) = Self::unpack(min);
                let target = at.micros() >> SLOT_SHIFT;
                self.cur_slot = self.cur_slot.max((target + 1).saturating_sub(SLOTS as u64));
            }
            self.cur_slot += 1;
            // Overflow events entering the horizon land on the wheel.
            while let Some(&Reverse(key)) = self.overflow.peek() {
                let (at, _) = Self::unpack(key);
                let slot = at.micros() >> SLOT_SHIFT;
                if slot >= self.cur_slot + SLOTS as u64 {
                    break;
                }
                self.overflow.pop();
                self.slots[(slot as usize) & (SLOTS - 1)].push(key);
                self.in_slots += 1;
            }
            let idx = (self.cur_slot as usize) & (SLOTS - 1);
            if !self.slots[idx].is_empty() {
                // `active` is empty but keeps its capacity; the swap hands
                // that storage to the vacated slot for reuse next wrap.
                std::mem::swap(&mut self.active, &mut self.slots[idx]);
                self.in_slots -= self.active.len();
                self.active.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
        }
    }

    /// Pop the next event, advancing the clock to its timestamp. Returns
    /// `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64)> {
        if self.active.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.advance();
        }
        let key = self.active.pop()?;
        let (at, payload) = Self::unpack(key);
        self.now = at;
        self.processed += 1;
        self.pending -= 1;
        Some((at, payload))
    }
}

// ---- checkpointing ----
//
// The wheel layout (which bucket is live, what still waits in overflow)
// depends on the pop history, which a snapshot must not capture. Pending
// events are written in pop order as `[time, seq, payload]` together with
// the clock and counters; decoding files them back by time. Pop order
// depends only on `(time, seq)`, so a restored queue pops exactly what the
// original would have.

impl serde::Serialize for CalendarQueue {
    fn to_value(&self) -> serde::Value {
        let mut keys: Vec<u128> = self
            .active
            .iter()
            .chain(self.slots.iter().flatten())
            .copied()
            .chain(self.overflow.iter().map(|&Reverse(k)| k))
            .collect();
        keys.sort_unstable();
        let entries = keys
            .into_iter()
            .map(|key| {
                let (at, payload) = Self::unpack(key);
                let seq = (key >> PAYLOAD_BITS) as u64 & ((1 << SEQ_BITS) - 1);
                serde::Value::Seq(vec![
                    serde::Value::UInt(at.micros()),
                    serde::Value::UInt(seq),
                    serde::Value::UInt(payload),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("now".into(), serde::Value::UInt(self.now.micros())),
            ("seq".into(), serde::Value::UInt(self.seq)),
            ("processed".into(), serde::Value::UInt(self.processed)),
            ("peak".into(), serde::Value::UInt(self.peak as u64)),
            ("entries".into(), serde::Value::Seq(entries)),
        ])
    }
}

impl serde::Deserialize for CalendarQueue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let err = |msg: &str| serde::Error::custom(format!("CalendarQueue: {msg}"));
        let map = v.as_map().ok_or_else(|| err("expected map"))?;
        let field = |name: &str| {
            serde::find_field(map, name).ok_or_else(|| err(&format!("missing field {name}")))
        };
        let now = u64::from_value(field("now")?)?;
        let seq = u64::from_value(field("seq")?)?;
        if now >= 1 << TIME_BITS || seq > 1 << SEQ_BITS {
            return Err(err("clock or sequence out of range"));
        }
        let mut q = Self::new();
        q.now = SimTime(now);
        q.cur_slot = now >> SLOT_SHIFT;
        q.seq = seq;
        q.processed = u64::from_value(field("processed")?)?;
        q.peak = usize::from_value(field("peak")?)?;
        let entries = field("entries")?
            .as_seq()
            .ok_or_else(|| err("entries must be a sequence"))?;
        let mut last: Option<(u64, u64)> = None;
        for e in entries {
            let parts = e
                .as_seq()
                .filter(|p| p.len() == 3)
                .ok_or_else(|| err("entry must be [time, seq, payload]"))?;
            let at = u64::from_value(&parts[0])?;
            let s = u64::from_value(&parts[1])?;
            let payload = u64::from_value(&parts[2])?;
            // Entries must be pending (not before the clock), in strict
            // pop order, numbered below the next sequence, and fit the key.
            if at < now || at >= 1 << TIME_BITS || s >= seq || payload > PAYLOAD_MASK {
                return Err(err("entry out of range"));
            }
            if last.is_some_and(|l| l >= (at, s)) {
                return Err(err("entries out of pop order"));
            }
            last = Some((at, s));
            q.insert(Self::pack(SimTime(at), s, payload));
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ms(5.0), 2);
        q.schedule(SimTime::from_ms(1.0), 0);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(3.0), 9);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 9, 2]);
        assert_eq!(q.processed(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn same_slot_insertion_keeps_order() {
        // Events scheduled into the live bucket while draining it.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(500), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Both targets are inside the current (first) slot.
        q.schedule(SimTime(100), 3);
        q.schedule(SimTime(100), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = CalendarQueue::new();
        // Way beyond the wheel horizon (1024 slots x ~1 ms ~= 1 s).
        q.schedule(SimTime::from_secs(30.0), 7);
        q.schedule(SimTime::from_ms(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        let (at, p) = q.pop().unwrap();
        assert_eq!((at, p), (SimTime::from_secs(30.0), 7));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_secs(30.0));
    }

    #[test]
    fn pending_and_peak_track() {
        let mut q = CalendarQueue::with_capacity(64);
        for i in 0..50 {
            q.schedule(SimTime(i * 2000), i);
        }
        assert_eq!(q.pending(), 50);
        assert_eq!(q.peak_pending(), 50);
        while q.pop().is_some() {}
        assert_eq!(q.pending(), 0);
        assert_eq!(q.peak_pending(), 50);
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order() {
        use serde::{Deserialize as _, Serialize as _};
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ms(3.0), 30);
        q.schedule(SimTime::from_ms(1.0), 10);
        q.schedule(SimTime::from_ms(1.0), 11);
        q.schedule(SimTime::from_secs(30.0), 40); // beyond the horizon
        q.pop(); // advance the clock so `now` is non-zero in the snapshot
        q.schedule(SimTime::from_ms(1.0), 12); // into the live bucket
        q.schedule(SimTime::from_ms(2.0), 20);
        let mut restored = CalendarQueue::from_value(&q.to_value()).unwrap();
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.processed(), q.processed());
        assert_eq!(restored.peak_pending(), q.peak_pending());
        assert_eq!(restored.pending(), q.pending());
        assert_eq!(restored.to_value(), q.to_value());
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        // Post-restore scheduling continues the same sequence numbering.
        q.schedule_in(SimTime::from_ms(1.0), 99);
        restored.schedule_in(SimTime::from_ms(1.0), 99);
        assert_eq!(q.to_value(), restored.to_value());
    }

    #[test]
    fn snapshot_rejects_malformed_trees() {
        use serde::{Deserialize as _, Serialize as _};
        let bad = serde::Value::Seq(vec![]);
        assert!(CalendarQueue::from_value(&bad).is_err());
        let missing = serde::Value::Map(vec![("now".into(), serde::Value::UInt(0))]);
        assert!(CalendarQueue::from_value(&missing).is_err());
        // Entries before the clock, out of pop order, or numbered at or
        // past the next sequence are refused.
        use serde::Value::{Map, Seq, UInt};
        let doc = |now: u64, entries: &[[u64; 3]]| {
            Map(vec![
                ("now".into(), UInt(now)),
                ("seq".into(), UInt(2)),
                ("processed".into(), UInt(0)),
                ("peak".into(), UInt(2)),
                (
                    "entries".into(),
                    Seq(entries
                        .iter()
                        .map(|e| Seq(e.iter().map(|&x| UInt(x)).collect()))
                        .collect()),
                ),
            ])
        };
        let ok = CalendarQueue::from_value(&doc(0, &[[10, 0, 1], [20, 1, 2]])).unwrap();
        assert_eq!(ok.to_value(), doc(0, &[[10, 0, 1], [20, 1, 2]]));
        for (now, entries) in [
            (15, [[10, 0, 1], [20, 1, 2]]),
            (0, [[20, 1, 2], [10, 0, 1]]),
            (0, [[10, 0, 1], [20, 2, 2]]),
        ] {
            assert!(CalendarQueue::from_value(&doc(now, &entries)).is_err());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A snapshot taken at any point of any schedule resumes into the
        /// exact pop sequence of the uninterrupted queue.
        #[test]
        fn snapshot_resume_matches_uninterrupted(
            ops in prop::collection::vec((0u64..3_000_000, 0u64..1000), 1..200),
            pops_before in 0usize..200,
        ) {
            use serde::{Deserialize as _, Serialize as _};
            let mut q = CalendarQueue::new();
            for (i, &(dt, payload)) in ops.iter().enumerate() {
                q.schedule(q.now() + SimTime(dt), payload);
                if i < pops_before {
                    q.pop();
                }
            }
            let mut restored = CalendarQueue::from_value(&q.to_value()).unwrap();
            loop {
                let a = q.pop();
                prop_assert_eq!(a, restored.pop());
                if a.is_none() {
                    break;
                }
                // Keep scheduling after the restore: new keys interleave.
                let (t, p) = a.unwrap();
                if p % 3 == 0 {
                    q.schedule(t + SimTime(p * 997), p + 1);
                    restored.schedule(t + SimTime(p * 997), p + 1);
                }
            }
            prop_assert_eq!(q.processed(), restored.processed());
        }

        /// The load-bearing property: for ANY schedule, the calendar queue
        /// pops the exact sequence the reference heap queue pops — time
        /// order with FIFO tie-breaking, interleaved scheduling included.
        /// Deltas span sub-slot, multi-slot and beyond-horizon distances.
        #[test]
        fn matches_reference_queue_on_random_schedules(
            ops in prop::collection::vec((0u64..3_000_000, 0u64..1000), 1..400),
            drains in prop::collection::vec(1usize..20, 0..50),
        ) {
            let mut cal = CalendarQueue::new();
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut ops = ops.into_iter();
            // Interleave bursts of schedules with bursts of pops.
            for drain in drains.iter().chain(std::iter::repeat(&usize::MAX)) {
                let mut scheduled = false;
                for (dt, payload) in ops.by_ref().take(8) {
                    let at = cal.now() + SimTime(dt);
                    cal.schedule(at, payload);
                    heap.schedule(at, payload);
                    scheduled = true;
                }
                let mut drained = 0usize;
                loop {
                    if drained >= *drain {
                        break;
                    }
                    drained += 1;
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(cal.now(), heap.now());
                    if a.is_none() {
                        break;
                    }
                }
                if !scheduled && cal.is_empty() {
                    prop_assert!(heap.is_empty());
                    break;
                }
            }
            prop_assert_eq!(cal.processed(), heap.processed());
        }
    }
}
