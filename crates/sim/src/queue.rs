//! A time-ordered, FIFO-stable event queue with hot-path counters.
//!
//! The queue is a *ladder queue* (a self-adjusting calendar queue,
//! cf. Tang & Goh 2005, and the index-based queues of dslab-core): events
//! live in one of three regions ordered by delivery time —
//!
//! * **bottom** — a sorted run the pop path drains by a moving index;
//! * **rungs** — a stack of bucket arrays, each rung subdividing either
//!   the far-horizon pool or one overfull bucket of the rung above it
//!   into fixed-width time buckets;
//! * **top** — an unsorted far-horizon pool for everything at or beyond
//!   the spread-out region.
//!
//! Pushes append in O(1) (far-future events land in `top`, near-future
//! events in a rung bucket); sorting is deferred until a bucket is small
//! enough to become the new bottom run, so the per-event lifecycle cost
//! is O(1) amortised instead of the binary heap's O(log n) with
//! cache-hostile sift paths.
//!
//! Event payloads are stored once in a slab ([`EventId`] = slot index +
//! generation), so the regions move only 16-byte `(time, slot)` items and
//! cancellation by id is O(1): the payload is dropped in place (a
//! tombstone) and the item is reaped lazily when its region drains.
//! Same-instant FIFO delivery rests on an order-preservation invariant
//! instead of an explicit sequence number: every region appends in push
//! order, every region-to-region move (spread, scatter, reap, partition)
//! preserves relative order, and every sort of a run is *stable* in time
//! — so items sharing an instant are always delivered in push order. The
//! slab and the far-horizon pool store their entries in fixed-size chunks
//! rather than one flat `Vec`, which pins per-chunk allocations below the
//! allocator's mmap threshold and avoids the repeated multi-megabyte
//! realloc-and-copy (plus page-fault) churn of doubling growth.
//!
//! The pre-existing binary-heap implementation is kept as
//! [`crate::reference::HeapQueue`] so old-vs-new equivalence stays
//! executable (see `tests/queue_equiv.rs`).

use crate::SimTime;

/// Hot-path counters maintained by [`EventQueue`] — the raw numbers the
/// perf-observability plane (`obs::profile` + the `perf_report` bench
/// bin) turns into events/sec and batching statistics. Counting is pure
/// integer bookkeeping on operations the queue already performs, so the
/// overhead is a handful of adds per event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Events ever pushed.
    pub scheduled: u64,
    /// Events delivered through `pop` / `pop_due` / `pop_batch_due`.
    pub delivered: u64,
    /// Events removed without delivery (`cancel`, `cancel_where`,
    /// `clear`).
    pub cancelled: u64,
    /// High-water mark of pending events.
    pub depth_high_water: usize,
    /// Longest run of consecutively-delivered events sharing one
    /// timestamp — the same-tick batch size the delivery loop sees.
    pub max_same_tick_batch: u64,
}

impl KernelCounters {
    /// Events currently accounted as in flight
    /// (`scheduled − delivered − cancelled`).
    pub fn in_flight(&self) -> u64 {
        self.scheduled.saturating_sub(self.delivered).saturating_sub(self.cancelled)
    }
}

/// Handle to a scheduled event, returned by [`EventQueue::push`] and
/// accepted by [`EventQueue::cancel`].
///
/// The handle is generation-checked: once the event is delivered or
/// cancelled its slot's generation advances, so a stale handle can never
/// cancel an unrelated event that happens to reuse the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// Branch-layout hint for impossible-by-invariant fallback paths: calling
/// this in a branch tells the optimizer the branch is cold, so the
/// panic-free fallbacks cost no more than the panicking bounds checks
/// they replaced.
#[cold]
#[inline(never)]
fn cold() {}

/// A bucket whose item count is at or below this sorts straight into the
/// bottom run; bigger buckets are subdivided into a child rung first.
const SORT_THRESHOLD: usize = 2048;

/// Bucket-count bound per rung (power of two, scaled to the item count).
const MAX_BUCKETS: usize = 4096;

/// One slab slot: the payload plus the generation that validates
/// [`EventId`]s. A cancelled-but-unreaped event is `event: None` with its
/// index still parked in some region (a tombstone).
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// Slab chunk size in slots (power of two). 1024 keeps each chunk's
/// allocation under glibc's default 128 KiB mmap threshold for slots
/// under 128 bytes (the cloud simulator's 32-byte slots make 32 KiB
/// chunks; a far-horizon `top` chunk of 16-byte items is 16 KiB), so
/// chunks come from the recycled heap instead of fresh kernel mappings.
const SLAB_SHIFT: usize = 10;
const SLAB_CHUNK: usize = 1 << SLAB_SHIFT;

/// Chunked slab: append-only slot storage that never moves existing
/// slots. Growth allocates one fixed-size chunk instead of doubling a
/// flat `Vec` — no realloc copies, no multi-megabyte mappings.
#[derive(Debug)]
struct Slab<E> {
    chunks: Vec<Vec<Slot<E>>>,
    len: usize,
}

impl<E> Slab<E> {
    fn new() -> Slab<E> {
        Slab { chunks: Vec::new(), len: 0 }
    }

    fn push(&mut self, slot: Slot<E>) -> u32 {
        let idx = self.len;
        if idx & (SLAB_CHUNK - 1) == 0 {
            self.chunks.push(Vec::with_capacity(SLAB_CHUNK));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push(slot);
        }
        self.len += 1;
        idx as u32
    }

    /// Bounds-checked lookup for untrusted [`EventId`]s.
    #[inline]
    fn get_mut(&mut self, idx: u32) -> Option<&mut Slot<E>> {
        self.chunks.get_mut(idx as usize >> SLAB_SHIFT)?.get_mut(idx as usize & (SLAB_CHUNK - 1))
    }

    #[inline]
    fn is_live(&self, idx: u32) -> bool {
        let Some(chunk) = self.chunks.get(idx as usize >> SLAB_SHIFT) else {
            cold();
            return false;
        };
        let Some(slot) = chunk.get(idx as usize & (SLAB_CHUNK - 1)) else {
            cold();
            return false;
        };
        slot.event.is_some()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot<E>> {
        self.chunks.iter_mut().flatten()
    }
}

/// The 16-byte handle the regions actually move around: delivery time
/// plus the slab index of the payload. There is no sequence number —
/// same-instant FIFO comes from the order-preservation invariant (see the
/// module docs), which every sort here honours by being stable in time.
#[derive(Debug, Clone, Copy)]
struct Item {
    time: u64,
    idx: u32,
}

/// One rung of the ladder: `buckets[b]` nominally covers
/// `[start + b·width, start + (b+1)·width)`; buckets below `cur` have
/// been consumed. `width` is always a power of two so bucket indexing is
/// a shift, never a division.
#[derive(Debug)]
struct Rung {
    start: u64,
    width: u64,
    /// `width.trailing_zeros()` — bucket index is `(time - start) >> shift`.
    shift: u32,
    cur: usize,
    /// Items stored in `buckets[cur..]` (tombstones included).
    len: usize,
    buckets: Vec<Vec<Item>>,
}

impl Rung {
    /// Upper end of this rung's nominal range (saturating; an item routes
    /// here only when its time is strictly below this).
    fn limit(&self) -> u64 {
        self.start.saturating_add(self.width.saturating_mul(self.buckets.len() as u64))
    }

    /// Lower end of the not-yet-consumed range — the boundary below which
    /// new pushes must go to the bottom run instead.
    fn active_start(&self) -> u64 {
        self.start.saturating_add(self.width.saturating_mul(self.cur as u64))
    }
}

/// A priority queue of future events, keyed by [`SimTime`].
///
/// Events scheduled for the same instant are delivered in the order they were
/// pushed (FIFO stability), which keeps simulations deterministic.
///
/// # Examples
///
/// ```
/// use evop_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.push(SimTime::from_secs(2), "b");
/// queue.push(SimTime::from_secs(2), "c");
/// queue.push(SimTime::from_secs(1), "a");
///
/// let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
///
/// Cancellation by handle is O(1) and generation-checked:
///
/// ```
/// use evop_sim::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// let keep = queue.push(SimTime::from_secs(1), "keep");
/// let drop = queue.push(SimTime::from_secs(2), "drop");
/// assert!(queue.cancel(drop));
/// assert!(!queue.cancel(drop), "second cancel is a no-op");
/// assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "keep")));
/// assert_eq!(queue.pop(), None);
/// let _ = keep;
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slots: Slab<E>,
    free: Vec<u32>,
    /// Sorted run of the earliest items; `bottom[bottom_pos..]` is
    /// pending, the prefix has been delivered or reaped.
    bottom: Vec<Item>,
    bottom_pos: usize,
    /// Rung stack: `rungs[0]` is the outermost (latest) range, the last
    /// rung the innermost (earliest). Ranges tile without overlap.
    rungs: Vec<Rung>,
    /// Far-horizon pool: unsorted chunks of items at or beyond every
    /// rung, in push order across the chunk list.
    top: Vec<Vec<Item>>,
    /// Times at or beyond this may live in `top` (advanced on spread).
    top_start: u64,
    /// Live (non-tombstoned, undelivered) events.
    live: usize,
    /// Tombstones still parked in some region. When zero, every parked
    /// item is live, so the pop path can skip per-item liveness checks
    /// (a random-access slab read) entirely.
    dead: usize,
    /// Delivery time of the earliest live event — kept exact after every
    /// `&mut` operation so [`EventQueue::peek_time`] stays `&self`.
    next_time: Option<SimTime>,
    counters: KernelCounters,
    /// Timestamp and length of the current same-tick delivery run.
    batch: Option<(SimTime, u64)>,
    /// Reused radix-scatter buffer (see [`sort_run`]).
    scratch: Vec<Item>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            slots: Slab::new(),
            free: Vec::new(),
            bottom: Vec::new(),
            bottom_pos: 0,
            rungs: Vec::new(),
            top: Vec::new(),
            top_start: 0,
            live: 0,
            dead: 0,
            next_time: None,
            counters: KernelCounters::default(),
            batch: None,
            scratch: Vec::new(),
        }
    }

    /// Schedules `event` for delivery at instant `time`, returning a
    /// handle that can [`cancel`](EventQueue::cancel) it in O(1).
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
        let (idx, gen) = match self.free.pop() {
            // Free-list indices always point at real slots; if that ever
            // stopped holding, fall back to a fresh allocation.
            Some(idx) => match self.slots.get_mut(idx) {
                Some(slot) => {
                    slot.event = Some(event);
                    (idx, slot.gen)
                }
                None => {
                    cold();
                    (self.slots.push(Slot { gen: 0, event: Some(event) }), 0)
                }
            },
            None => (self.slots.push(Slot { gen: 0, event: Some(event) }), 0),
        };
        self.route(Item { time: time.as_millis(), idx });
        self.live += 1;
        self.counters.scheduled += 1;
        if self.counters.depth_high_water < self.live {
            self.counters.depth_high_water = self.live;
        }
        if self.next_time.is_none_or(|t| time < t) {
            self.next_time = Some(time);
        }
        EventId { idx, gen }
    }

    /// Places an item in the innermost region whose range contains its
    /// time: below the innermost rung's active range → sorted insert into
    /// the bottom run; inside some rung's range → O(1) bucket append;
    /// beyond every rung → O(1) far-horizon append.
    fn route(&mut self, item: Item) {
        // Fast path: no rungs spread out and the time is at or beyond the
        // far-horizon start — the common shape while a simulation front-
        // loads its schedule.
        if self.rungs.is_empty() && item.time >= self.top_start {
            self.push_top(item);
            return;
        }
        let boundary = match self.rungs.last() {
            Some(r) => r.active_start(),
            None => self.top_start,
        };
        if item.time < boundary {
            // Strictly-after-equal placement keeps same-instant FIFO: the
            // new item was pushed later than anything already parked.
            let tail = self.bottom.get(self.bottom_pos..).unwrap_or_default();
            let at = self.bottom_pos + tail.partition_point(|it| it.time <= item.time);
            self.bottom.insert(at, item);
            return;
        }
        for rung in self.rungs.iter_mut().rev() {
            if item.time < rung.limit() {
                // `time ≥ active_start ≥ start`, and `time < limit` bounds
                // the index below the bucket count even when `limit`
                // saturated (then `count·width` exceeds `u64::MAX − start`).
                let bucket = ((item.time - rung.start) >> rung.shift) as usize;
                if let Some(slot) = rung.buckets.get_mut(bucket) {
                    slot.push(item);
                    rung.len += 1;
                    return;
                }
            }
        }
        self.push_top(item);
    }

    /// Appends to the far-horizon pool, opening a fresh fixed-size chunk
    /// when the current one is full.
    fn push_top(&mut self, item: Item) {
        if self.top.last().is_none_or(|chunk| chunk.len() >= SLAB_CHUNK) {
            self.top.push(Vec::with_capacity(SLAB_CHUNK));
        }
        if let Some(chunk) = self.top.last_mut() {
            chunk.push(item);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let item = match self.bottom.get(self.bottom_pos) {
                Some(item) => *item,
                None => {
                    if !self.refill() {
                        self.next_time = None;
                        return None;
                    }
                    continue;
                }
            };
            self.bottom_pos += 1;
            // Bottom items always have a backing slot; skip the item (as a
            // tombstone would be) if that ever stopped holding.
            let Some(slot) = self.slots.get_mut(item.idx) else {
                cold();
                continue;
            };
            match slot.event.take() {
                Some(event) => {
                    slot.gen = slot.gen.wrapping_add(1);
                    self.live -= 1;
                    let time = SimTime::from_millis(item.time);
                    self.counters.delivered += 1;
                    let run = match self.batch {
                        Some((t, n)) if t == time => n + 1,
                        _ => 1,
                    };
                    self.batch = Some((time, run));
                    self.counters.max_same_tick_batch = self.counters.max_same_tick_batch.max(run);
                    self.settle();
                    return Some((time, event));
                }
                // Tombstone that was cancelled while sitting in the bottom
                // run: skip it. Its slot (like every consumed bottom
                // item's) returns to the free list in bulk at refill.
                None => self.dead -= 1,
            }
        }
    }

    /// The delivery time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_time
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`.
    ///
    /// ```
    /// use evop_sim::{EventQueue, SimTime};
    /// let mut queue = EventQueue::new();
    /// queue.push(SimTime::from_secs(5), "later");
    /// assert!(queue.pop_due(SimTime::from_secs(4)).is_none());
    /// assert!(queue.pop_due(SimTime::from_secs(5)).is_some());
    /// ```
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.next_time {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Drains every event of the earliest due tick into `buf`, returning
    /// how many were appended (0 when nothing is due at or before `now`).
    ///
    /// All appended events share one timestamp and arrive in push order —
    /// exactly the prefix a `pop_due` loop would deliver for that tick —
    /// so control loops can advance their clock once per tick and handle
    /// the whole batch. Events the handlers push *at the same instant*
    /// are not in the batch; they form the next one.
    ///
    /// ```
    /// use evop_sim::{EventQueue, SimTime};
    /// let mut queue = EventQueue::new();
    /// let t = SimTime::from_secs(1);
    /// queue.push(t, "a");
    /// queue.push(t, "b");
    /// queue.push(SimTime::from_secs(2), "c");
    /// let mut batch = Vec::new();
    /// assert_eq!(queue.pop_batch_due(SimTime::from_secs(9), &mut batch), 2);
    /// assert_eq!(batch, [(t, "a"), (t, "b")]);
    /// ```
    pub fn pop_batch_due(&mut self, now: SimTime, buf: &mut Vec<(SimTime, E)>) -> usize {
        let Some(tick) = self.next_time.filter(|&t| t <= now) else { return 0 };
        let t_raw = tick.as_millis();
        let mut n: u64 = 0;
        loop {
            // Drain the contiguous same-tick prefix of the bottom run in
            // one sweep — one counter/`next_time` settle for the whole
            // batch instead of a full `pop` cycle per event.
            while let Some(&item) = self.bottom.get(self.bottom_pos) {
                if item.time != t_raw {
                    break;
                }
                self.bottom_pos += 1;
                let Some(slot) = self.slots.get_mut(item.idx) else {
                    cold();
                    continue;
                };
                match slot.event.take() {
                    Some(event) => {
                        slot.gen = slot.gen.wrapping_add(1);
                        self.live -= 1;
                        buf.push((tick, event));
                        n += 1;
                    }
                    None => self.dead -= 1,
                }
            }
            // A later-time front means the tick is fully drained; an empty
            // run may still hide same-tick items behind a refill.
            if self.bottom.get(self.bottom_pos).is_some() || !self.refill() {
                break;
            }
        }
        if n > 0 {
            self.counters.delivered += n;
            let run = match self.batch {
                Some((t, k)) if t == tick => k + n,
                _ => n,
            };
            self.batch = Some((tick, run));
            self.counters.max_same_tick_batch = self.counters.max_same_tick_batch.max(run);
        }
        self.settle();
        n as usize
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Pending events — `len()` under the name the backpressure-facing
    /// callers and the invariant suite use. Always equals
    /// [`KernelCounters::in_flight`].
    pub fn backlog(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Discards all pending events (counted as cancelled).
    pub fn clear(&mut self) {
        self.counters.cancelled += self.live as u64;
        self.free.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.event.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
            self.free.push(idx as u32);
        }
        self.bottom.clear();
        self.bottom_pos = 0;
        self.rungs.clear();
        self.top.clear();
        self.top_start = 0;
        self.live = 0;
        self.dead = 0;
        self.next_time = None;
    }

    /// Cancels the event behind `id` in O(1), returning whether it was
    /// still pending. The payload is dropped immediately; the queue slot
    /// is reaped lazily when its region drains. Delivered, already
    /// cancelled, and stale handles all return `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.idx) {
            Some(slot) if slot.gen == id.gen && slot.event.is_some() => {
                slot.event = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.live -= 1;
                self.dead += 1;
                self.counters.cancelled += 1;
                self.settle();
                true
            }
            _ => false,
        }
    }

    /// Removes every pending event matching `pred` without delivering it,
    /// returning how many were cancelled. Relative order of the survivors
    /// is preserved (the insertion sequence is kept), so cancellation
    /// never perturbs FIFO determinism.
    ///
    /// ```
    /// use evop_sim::{EventQueue, SimTime};
    /// let mut queue = EventQueue::new();
    /// queue.push(SimTime::from_secs(1), "keep");
    /// queue.push(SimTime::from_secs(2), "drop");
    /// assert_eq!(queue.cancel_where(|e| *e == "drop"), 1);
    /// assert_eq!(queue.len(), 1);
    /// assert_eq!(queue.counters().cancelled, 1);
    /// ```
    pub fn cancel_where<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> usize {
        let mut cancelled = 0usize;
        for slot in self.slots.iter_mut() {
            if slot.event.as_ref().is_some_and(&mut pred) {
                slot.event = None;
                slot.gen = slot.gen.wrapping_add(1);
                cancelled += 1;
            }
        }
        if cancelled > 0 {
            self.live -= cancelled;
            self.dead += cancelled;
            self.counters.cancelled += cancelled as u64;
            self.settle();
        }
        cancelled
    }

    /// A copy of the queue's hot-path counters.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Restores the resting invariant: the front of the bottom run is a
    /// live event and `next_time` is its timestamp (or the queue is empty
    /// and `next_time` is `None`). Called after every mutation that can
    /// kill or consume the front. Amortised O(1): every item is reaped at
    /// most once.
    fn settle(&mut self) {
        loop {
            let item = match self.bottom.get(self.bottom_pos) {
                Some(item) => *item,
                None => {
                    if !self.refill() {
                        self.next_time = None;
                        return;
                    }
                    continue;
                }
            };
            // With no tombstones parked anywhere the front is live by
            // construction — skip the random-access slab read that would
            // otherwise dominate the pop path.
            if self.dead == 0 || self.slots.is_live(item.idx) {
                self.next_time = Some(SimTime::from_millis(item.time));
                return;
            }
            self.dead -= 1;
            self.bottom_pos += 1;
        }
    }

    /// Replaces the exhausted bottom run with the next batch of earliest
    /// items, filtering tombstones on the way. Returns `false` when no
    /// live event remains anywhere.
    fn refill(&mut self) -> bool {
        // Every bottom item has been consumed (delivered or reaped) by
        // the time the run is exhausted; their slots return to the free
        // list in one batch here instead of a `Vec::push` per pop.
        self.free.extend(self.bottom.iter().map(|item| item.idx));
        self.bottom.clear();
        self.bottom_pos = 0;
        loop {
            while self.rungs.last().is_some_and(|r| r.len == 0) {
                self.rungs.pop();
            }
            if let Some(rung) = self.rungs.last_mut() {
                // The emptiness check above guarantees a non-empty bucket
                // at or after `cur`.
                while rung.buckets.get(rung.cur).is_some_and(Vec::is_empty) {
                    rung.cur += 1;
                }
                let bucket = rung.cur;
                let items = rung.buckets.get_mut(bucket).map(std::mem::take).unwrap_or_default();
                rung.cur += 1;
                if items.is_empty() {
                    // Ran off the bucket list without finding the promised
                    // items — retire the rung rather than spin on it.
                    rung.len = 0;
                } else {
                    rung.len -= items.len();
                }
                // The bucket's nominal range bounds every item in it;
                // rung items are always strictly below the `u64::MAX`
                // sentinel (it is held back in the far-horizon pool),
                // so the clamp keeps later span arithmetic overflow-
                // free even when the range saturates.
                let lo = rung.start.saturating_add(rung.width.saturating_mul(bucket as u64));
                let hi = lo.saturating_add(rung.width - 1).min(u64::MAX - 1);
                if self.lower(items, Some((lo, hi))) {
                    return true;
                }
                continue;
            }
            if !self.top.is_empty() {
                let chunks = std::mem::take(&mut self.top);
                // One fused pass: reap tombstones and hold times of
                // `u64::MAX` back in the far-horizon pool so the spread
                // range below never overflows; if *everything* live is at
                // the sentinel, `lower` takes it straight to bottom
                // (single-instant batch).
                let total = chunks.iter().map(Vec::len).sum();
                let mut rest = Vec::with_capacity(total);
                let mut at_max = Vec::new();
                let mut min_rest = u64::MAX;
                let mut max_rest = 0u64;
                for item in chunks.into_iter().flatten() {
                    if self.dead > 0 && !self.slots.is_live(item.idx) {
                        self.free.push(item.idx);
                        self.dead -= 1;
                    } else if item.time == u64::MAX {
                        at_max.push(item);
                    } else {
                        min_rest = min_rest.min(item.time);
                        max_rest = max_rest.max(item.time);
                        rest.push(item);
                    }
                }
                let (spread, hint) = if rest.is_empty() {
                    self.top_start = u64::MAX;
                    (at_max, (u64::MAX, u64::MAX))
                } else {
                    if at_max.is_empty() {
                        self.top_start = max_rest + 1;
                    } else {
                        self.top = vec![at_max];
                        self.top_start = u64::MAX;
                    }
                    (rest, (min_rest, max_rest))
                };
                if self.lower(spread, Some(hint)) {
                    return true;
                }
                continue;
            }
            return false;
        }
    }

    /// Moves `items` one region lower, reaping tombstones on the way:
    /// small or single-instant batches sort into the bottom run (returns
    /// `true` when the run came out non-empty); big multi-instant batches
    /// become a new innermost rung (returns `false`).
    fn lower(&mut self, mut items: Vec<Item>, hint: Option<(u64, u64)>) -> bool {
        let mut min = u64::MAX;
        let mut max = 0;
        if self.dead > 0 {
            // Fused reap: drop tombstones in place during the range scan
            // (`retain` is stable, so push order survives).
            items.retain(|&item| {
                if self.slots.is_live(item.idx) {
                    min = min.min(item.time);
                    max = max.max(item.time);
                    true
                } else {
                    self.free.push(item.idx);
                    self.dead -= 1;
                    false
                }
            });
        } else if let Some((lo, hi)) = hint {
            // The caller already knows a (possibly conservative) range —
            // a rung bucket's nominal span, or the exact range tracked
            // during the far-horizon partition — so skip the scan.
            min = lo;
            max = hi;
        } else {
            for item in &items {
                min = min.min(item.time);
                max = max.max(item.time);
            }
        }
        if items.is_empty() {
            return false;
        }
        let mut hinted = hint.is_some() && self.dead == 0;
        loop {
            if min == max {
                // Single instant: batches are always seq-ascending (buckets
                // and the far-horizon pool only ever append in push order,
                // and every region-to-region move preserves order), so the
                // run is already in delivery order.
                self.bottom = items;
                self.bottom_pos = 0;
                return true;
            }
            if items.len() <= SORT_THRESHOLD {
                sort_run(&mut items, min, max, &mut self.scratch);
                self.bottom = items;
                self.bottom_pos = 0;
                return true;
            }
            // `max < u64::MAX` here (the sentinel is held back in `top`
            // and rung buckets only hold times strictly below a limit, and
            // range hints are clamped below the sentinel), so the span
            // arithmetic cannot overflow.
            let span = max - min + 1;
            let nb = (items.len() / SORT_THRESHOLD + 1).next_power_of_two().clamp(2, MAX_BUCKETS);
            // Round the width up to a power of two so bucket indexing is a
            // shift. `nb ≥ 2` bounds the raw width by 2⁶³, so the rounding
            // cannot overflow; widths still halve (at least) per child
            // rung, which is what guarantees the recursion terminates.
            let width = ((span - 1) / nb as u64 + 1).next_power_of_two();
            let shift = width.trailing_zeros();
            let count = (((span - 1) >> shift) + 1) as usize;
            // Size every bucket exactly up front: a counting pass is one
            // shift-and-add per item, far cheaper than letting each bucket
            // double-and-copy its way up during the scatter.
            let mut counts = vec![0usize; count];
            for item in &items {
                if let Some(c) = counts.get_mut(((item.time - min) >> shift) as usize) {
                    *c += 1;
                }
            }
            if hinted && counts.contains(&items.len()) {
                // Every item landed in one bucket: the hinted range was
                // far wider than the real one. Measure the exact range and
                // re-dispatch — the batch may be single-instant (straight
                // to the bottom run) or deserve a much tighter rung.
                hinted = false;
                min = u64::MAX;
                max = 0;
                for item in &items {
                    min = min.min(item.time);
                    max = max.max(item.time);
                }
                continue;
            }
            let mut rung = Rung {
                start: min,
                width,
                shift,
                cur: 0,
                len: items.len(),
                buckets: counts.iter().map(|&c| Vec::with_capacity(c)).collect(),
            };
            for item in items {
                if let Some(slot) = rung.buckets.get_mut(((item.time - min) >> shift) as usize) {
                    slot.push(item);
                }
            }
            self.rungs.push(rung);
            return false;
        }
    }
}

/// Sorts a bottom run into delivery order. Runs are always push-ordered
/// on entry (regions append in push order and every region-to-region move
/// preserves order), so a *stable* sort by time alone realises full
/// `(time, insertion)` delivery order: narrow-span runs take a two-pass
/// LSD radix on the time offset — no comparisons — and wide or tiny runs
/// fall back to the standard stable sort.
fn sort_run(items: &mut [Item], min: u64, max: u64, scratch: &mut Vec<Item>) {
    let span = max - min;
    if span >= 1 << 16 || items.len() < 64 {
        items.sort_by_key(|item| item.time);
        return;
    }
    if scratch.len() < items.len() {
        scratch.resize(items.len(), Item { time: 0, idx: 0 });
    }
    let Some(scratch) = scratch.get_mut(..items.len()) else {
        items.sort_by_key(|item| item.time);
        return;
    };
    // One fused prepass counts both bytes, so identity passes (all items
    // sharing a byte) are known up front and skipped entirely.
    let mut counts_lo = [0usize; 256];
    let mut counts_hi = [0usize; 256];
    for item in items.iter() {
        let off = item.time - min;
        if let Some(c) = counts_lo.get_mut((off & 0xFF) as usize) {
            *c += 1;
        }
        if let Some(c) = counts_hi.get_mut(((off >> 8) & 0xFF) as usize) {
            *c += 1;
        }
    }
    // Ping-pong between the two buffers instead of copying back after
    // each pass; only an odd number of real passes needs a final copy.
    let mut in_items = true;
    for (shift, counts) in [(0u32, &counts_lo), (8, &counts_hi)] {
        if counts.contains(&items.len()) {
            // Every item shares this byte — the pass would be the
            // identity permutation.
            continue;
        }
        let mut starts = [0usize; 256];
        let mut acc = 0usize;
        for (start, &count) in starts.iter_mut().zip(counts.iter()) {
            *start = acc;
            acc += count;
        }
        let (src, dst): (&[Item], &mut [Item]) =
            if in_items { (&*items, &mut *scratch) } else { (&*scratch, &mut *items) };
        for &item in src.iter() {
            let bin = (((item.time - min) >> shift) & 0xFF) as usize;
            let Some(pos) = starts.get_mut(bin) else { continue };
            if let Some(slot) = dst.get_mut(*pos) {
                *slot = item;
            }
            *pos += 1;
        }
        in_items = !in_items;
    }
    if !in_items {
        items.copy_from_slice(scratch);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> EventQueue<E> {
        let mut queue = EventQueue::new();
        queue.extend(iter);
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(5), 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 5, 10]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "x");
        assert_eq!(q.pop_due(SimTime::from_secs(1)), None);
        assert_eq!(q.pop_due(SimTime::from_secs(2)), Some((SimTime::from_secs(2), "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let q: EventQueue<&str> =
            vec![(SimTime::from_secs(3), "c"), (SimTime::from_secs(1), "a")].into_iter().collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_schedule_deliver_cancel() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(SimTime::from_secs(i), i);
        }
        assert_eq!(q.counters().scheduled, 5);
        assert_eq!(q.counters().depth_high_water, 5);
        let _ = q.pop();
        let _ = q.pop();
        assert_eq!(q.counters().delivered, 2);
        assert_eq!(q.cancel_where(|&e| e == 3), 1);
        q.clear();
        let c = q.counters();
        assert_eq!(c.cancelled, 1 + 2, "one targeted + two cleared");
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn counters_track_same_tick_batches() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..4 {
            q.push(t, i);
        }
        q.push(SimTime::from_secs(2), 99);
        while q.pop().is_some() {}
        assert_eq!(q.counters().max_same_tick_batch, 4);
    }

    #[test]
    fn cancel_where_preserves_fifo_of_survivors() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.push(t, i);
        }
        q.cancel_where(|&e| e % 2 == 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 3, 5, 7, 9]);
    }

    #[test]
    fn cancel_by_id_is_exact_and_idempotent() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        let b = q.push(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "tombstone cannot be cancelled twice");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(!q.cancel(b), "delivered events cannot be cancelled");
        assert_eq!(q.counters().cancelled, 1);
        assert_eq!(q.counters().delivered, 1);
    }

    #[test]
    fn stale_handles_never_touch_reused_slots() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), 1u32);
        let _ = q.pop();
        // The slot is reused by a new event; the old handle must be inert.
        let b = q.push(SimTime::from_secs(2), 2u32);
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_the_front_updates_peek_time() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        // Force the front into the sorted bottom run first.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_batch_due_drains_one_tick_in_push_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.push(t1, 0);
        q.push(t2, 10);
        q.push(t1, 1);
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch_due(SimTime::from_secs(0), &mut buf), 0);
        assert_eq!(q.pop_batch_due(SimTime::from_secs(9), &mut buf), 2);
        assert_eq!(buf, [(t1, 0), (t1, 1)]);
        buf.clear();
        assert_eq!(q.pop_batch_due(SimTime::from_secs(9), &mut buf), 1);
        assert_eq!(buf, [(t2, 10)]);
        assert_eq!(q.counters().max_same_tick_batch, 2);
    }

    #[test]
    fn interleaves_far_and_near_horizons() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(u64::MAX), "sentinel");
        q.push(SimTime::from_secs(1), "near");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        // Past the first spread, push below the consumed horizon.
        q.push(SimTime::from_secs(2), "later");
        q.push(SimTime::ZERO, "past");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "past")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(u64::MAX), "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backlog_tracks_in_flight() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(SimTime::from_millis(i % 7), i);
        }
        q.cancel_where(|&i| i % 5 == 0);
        let _ = q.pop();
        assert_eq!(q.backlog() as u64, q.counters().in_flight());
        assert_eq!(q.backlog(), q.len());
    }

    #[test]
    fn large_spread_drains_sorted() {
        // Enough events over a wide range to build rungs and recurse.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..10_000u64 {
            // xorshift so the test has no rand dependency here
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 100_000_000;
            q.push(SimTime::from_millis(t), i);
            expect.push((t, i));
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_millis(), e))).collect();
        assert_eq!(got, expect);
        assert_eq!(q.counters().delivered, 10_000);
    }
}
