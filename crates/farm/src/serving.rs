//! Serving-path building blocks: bounded request queues and the microbatch
//! coalescer.
//!
//! Training amortizes the compiled-unitary walk over 32-sample probe blocks
//! (PR 3); serving gets the same economics by *coalescing*: instead of
//! dispatching each queued inference request as its own
//! `forward_batch_into` call, an idle worker drains up to
//! [`CoalescePolicy::max_batch`] requests that share the pinned compile
//! base into one call, paying the per-call compile/setup cost once. The
//! price is queueing delay, so the policy carries an explicit max-wait
//! deadline: a partial batch is flushed once its **oldest** request has
//! waited `max_wait_ns`, which bounds the latency any single request can
//! lose to batching. Both knobs are plain data — the discrete-event
//! simulator (`photon-sim`) sweeps them to put numbers on the trade-off.
//!
//! Everything here is pure bookkeeping on virtual-nanosecond timestamps:
//! no clocks, no threads, no I/O. That is what lets the simulator replay
//! a million-request run bitwise.

use std::collections::VecDeque;

/// One queued inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// Unique, monotonically assigned request id.
    pub id: u64,
    /// Index of the submitting tenant.
    pub tenant: usize,
    /// Arrival timestamp in virtual nanoseconds.
    pub submitted_ns: u64,
    /// Absolute completion deadline in virtual nanoseconds
    /// ([`NO_DEADLINE`] when the request carries none). A request past its
    /// deadline is dead weight: serving it wastes chip time on an answer
    /// the caller has already abandoned, so drains check expiry and drop
    /// such requests as *expired* instead of serving them.
    pub deadline_ns: u64,
}

/// Deadline sentinel: the request never expires.
pub const NO_DEADLINE: u64 = u64::MAX;

impl ServeRequest {
    /// Whether the request's deadline has passed at `now_ns`.
    pub fn expired(&self, now_ns: u64) -> bool {
        now_ns >= self.deadline_ns
    }
}

/// Microbatch coalescing policy: how many requests one dispatch may merge,
/// and how long a partial batch may hold its oldest request hostage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescePolicy {
    /// Maximum requests per coalesced `forward_batch_into` call.
    pub max_batch: usize,
    /// Flush deadline: serve a partial batch once the oldest queued request
    /// has waited this long (virtual nanoseconds).
    pub max_wait_ns: u64,
}

impl CoalescePolicy {
    /// A coalescing policy.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch` is zero — a batch of zero can never drain.
    pub fn new(max_batch: usize, max_wait_ns: u64) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        CoalescePolicy {
            max_batch,
            max_wait_ns,
        }
    }

    /// The degenerate policy: every request is its own batch, dispatched
    /// immediately. This is the "before" arm of the coalescing comparison.
    pub fn uncoalesced() -> Self {
        CoalescePolicy {
            max_batch: 1,
            max_wait_ns: 0,
        }
    }

    /// Decides what an idle worker should do given `depth` queued requests
    /// whose oldest arrived at `oldest_submitted_ns`.
    ///
    /// * A full batch (`depth >= max_batch`) serves immediately.
    /// * A partial batch serves once the oldest request's deadline
    ///   (`submitted + max_wait_ns`) has passed, and otherwise reports the
    ///   exact virtual time to re-check, so an event-driven caller can arm
    ///   a single flush timer instead of polling.
    /// * An empty queue is [`DrainDecision::Idle`].
    ///
    /// # Panics
    ///
    /// Panics when `depth > 0` but no oldest timestamp is supplied.
    pub fn decide(
        &self,
        now_ns: u64,
        depth: usize,
        oldest_submitted_ns: Option<u64>,
    ) -> DrainDecision {
        if depth == 0 {
            return DrainDecision::Idle;
        }
        if depth >= self.max_batch {
            return DrainDecision::Serve(self.max_batch);
        }
        let oldest = oldest_submitted_ns.expect("non-empty queue must have an oldest timestamp");
        let deadline = oldest.saturating_add(self.max_wait_ns);
        if now_ns >= deadline {
            DrainDecision::Serve(depth)
        } else {
            DrainDecision::WaitUntil(deadline)
        }
    }
}

/// What [`CoalescePolicy::decide`] tells an idle worker to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainDecision {
    /// Drain exactly this many requests into one batch now.
    Serve(usize),
    /// Keep accumulating; re-evaluate at this virtual time (the oldest
    /// request's flush deadline).
    WaitUntil(u64),
    /// Nothing queued.
    Idle,
}

/// A bounded FIFO of serve requests with shed accounting.
///
/// Arrivals beyond `cap` are *shed* (rejected at admission) rather than
/// queued without bound — under sustained overload an unbounded queue just
/// converts every request into a timeout, while a bounded one keeps p99
/// finite for the requests it does admit. Shed counts and the high-water
/// depth are tracked so reports can show what overload actually cost.
#[derive(Debug)]
pub struct RequestQueue {
    cap: usize,
    queue: VecDeque<ServeRequest>,
    shed: u64,
    peak_depth: usize,
}

impl RequestQueue {
    /// An empty queue admitting at most `cap` requests at once.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero — such a queue would shed everything.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "queue capacity must be at least 1");
        RequestQueue {
            cap,
            queue: VecDeque::new(),
            shed: 0,
            peak_depth: 0,
        }
    }

    /// Admits a request, or sheds it when the queue is full. Returns
    /// whether the request was admitted.
    pub fn push(&mut self, req: ServeRequest) -> bool {
        if self.queue.len() >= self.cap {
            self.shed += 1;
            return false;
        }
        self.queue.push_back(req);
        self.peak_depth = self.peak_depth.max(self.queue.len());
        true
    }

    /// Removes and returns the oldest queued request.
    pub fn pop_front(&mut self) -> Option<ServeRequest> {
        self.queue.pop_front()
    }

    /// Re-admits a request at the *front* of the queue — watchdog-rescued
    /// work goes back ahead of newer arrivals, so the time it already
    /// waited keeps counting toward its deadline rather than being reset
    /// to the back of the line. Sheds when full, like [`push`](Self::push).
    pub fn requeue_front(&mut self, req: ServeRequest) -> bool {
        if self.queue.len() >= self.cap {
            self.shed += 1;
            return false;
        }
        self.queue.push_front(req);
        self.peak_depth = self.peak_depth.max(self.queue.len());
        true
    }

    /// Arrival time of the oldest queued request, if any.
    pub fn front_submitted_ns(&self) -> Option<u64> {
        self.queue.front().map(|r| r.submitted_ns)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Requests shed at admission so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// High-water queue depth observed so far.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, at: u64) -> ServeRequest {
        ServeRequest {
            id,
            tenant: 0,
            submitted_ns: at,
            deadline_ns: NO_DEADLINE,
        }
    }

    #[test]
    fn requests_expire_at_their_deadline() {
        let mut r = req(0, 100);
        assert!(!r.expired(u64::MAX - 1), "NO_DEADLINE never expires early");
        r.deadline_ns = 500;
        assert!(!r.expired(499));
        assert!(r.expired(500), "deadline instant counts as expired");
        assert!(r.expired(501));
    }

    #[test]
    fn uncoalesced_serves_each_request_immediately() {
        let p = CoalescePolicy::uncoalesced();
        assert_eq!(p.decide(0, 0, None), DrainDecision::Idle);
        assert_eq!(p.decide(5, 1, Some(5)), DrainDecision::Serve(1));
        // Even a deep queue drains one at a time.
        assert_eq!(p.decide(5, 10, Some(0)), DrainDecision::Serve(1));
    }

    #[test]
    fn full_batch_serves_without_waiting() {
        let p = CoalescePolicy::new(4, 1_000_000);
        assert_eq!(p.decide(10, 4, Some(10)), DrainDecision::Serve(4));
        assert_eq!(p.decide(10, 9, Some(10)), DrainDecision::Serve(4));
    }

    #[test]
    fn partial_batch_waits_until_oldest_deadline_then_flushes() {
        let p = CoalescePolicy::new(8, 1_000);
        // Oldest arrived at t=100 → deadline 1_100.
        assert_eq!(p.decide(100, 3, Some(100)), DrainDecision::WaitUntil(1_100));
        assert_eq!(
            p.decide(1_099, 3, Some(100)),
            DrainDecision::WaitUntil(1_100)
        );
        assert_eq!(p.decide(1_100, 3, Some(100)), DrainDecision::Serve(3));
        assert_eq!(p.decide(5_000, 3, Some(100)), DrainDecision::Serve(3));
    }

    #[test]
    fn zero_wait_flushes_partial_batches_immediately() {
        let p = CoalescePolicy::new(8, 0);
        assert_eq!(p.decide(7, 2, Some(7)), DrainDecision::Serve(2));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_policy_rejected() {
        let _ = CoalescePolicy::new(0, 100);
    }

    #[test]
    fn queue_sheds_beyond_cap_and_tracks_peak() {
        let mut q = RequestQueue::new(2);
        assert!(q.push(req(0, 10)));
        assert!(q.push(req(1, 20)));
        assert!(!q.push(req(2, 30)), "third request must be shed");
        assert_eq!(q.shed(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.front_submitted_ns(), Some(10));
        assert_eq!(q.pop_front().map(|r| r.id), Some(0));
        // Room again: admitted, and the peak stays at the high-water mark.
        assert!(q.push(req(3, 40)));
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.shed(), 1);
    }

    #[test]
    fn requeue_front_preserves_deadline_priority() {
        let mut q = RequestQueue::new(2);
        assert!(q.push(req(1, 100)));
        assert!(
            q.requeue_front(req(0, 50)),
            "rescued request jumps the line"
        );
        assert_eq!(q.front_submitted_ns(), Some(50));
        // Full queue sheds the requeue like a push.
        assert!(!q.requeue_front(req(2, 10)));
        assert_eq!(q.shed(), 1);
        assert_eq!(q.pop_front().map(|r| r.id), Some(0));
        assert_eq!(q.pop_front().map(|r| r.id), Some(1));
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = RequestQueue::new(8);
        for id in 0..5 {
            assert!(q.push(req(id, id * 100)));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_front().map(|r| r.id)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.front_submitted_ns(), None);
    }
}
