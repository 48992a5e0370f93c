//! Bounded admission queue with per-client fairness.
//!
//! Jobs are held in one FIFO per client; workers pop round-robin across
//! clients with queued work, so a client submitting a burst of 50 jobs
//! cannot starve a client submitting one. Total capacity is bounded:
//! at capacity, [`AdmissionQueue::push`] refuses and the server answers
//! `Busy{retry_after_ms}` — explicit backpressure instead of unbounded
//! buffering.

use crate::proto::JobSpec;
use anacin_obs::CancelToken;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// A job admitted to the queue, with everything a worker needs to run
/// and answer it.
pub struct QueuedJob {
    /// The submitting connection.
    pub client: u64,
    /// Client-chosen job id.
    pub id: u64,
    /// What to run.
    pub spec: JobSpec,
    /// When the job was admitted (queue-wait histogram).
    pub enqueued: Instant,
    /// The job's cancellation token, created at admission so a `Cancel`
    /// reaches the job whether it is still queued or already running.
    pub cancel: CancelToken,
}

/// The queue refused a push.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Total capacity reached; tell the client to back off.
    Full,
    /// The queue is closed (server draining); nothing new is admitted.
    Closed,
}

struct Inner {
    /// One FIFO per client, in client arrival order. Entries are removed
    /// when their deque empties, so the vec stays proportional to
    /// clients with queued work.
    per_client: Vec<(u64, VecDeque<QueuedJob>)>,
    /// Round-robin cursor into `per_client`.
    cursor: usize,
    /// Total queued jobs across all clients.
    len: usize,
    closed: bool,
}

/// See the module docs.
pub struct AdmissionQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// An empty queue holding at most `capacity` jobs in total.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                per_client: Vec::new(),
                cursor: 0,
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Jobs currently queued (not those already popped by workers).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit a job: FIFO within its client. Refuses when at capacity or
    /// closed.
    pub fn push(&self, job: QueuedJob) -> Result<(), AdmitError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(AdmitError::Closed);
        }
        if inner.len >= self.capacity {
            return Err(AdmitError::Full);
        }
        match inner.per_client.iter_mut().find(|(c, _)| *c == job.client) {
            Some((_, q)) => q.push_back(job),
            None => {
                let client = job.client;
                let mut q = VecDeque::new();
                q.push_back(job);
                inner.per_client.push((client, q));
            }
        }
        inner.len += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next job round-robin across clients, blocking while the
    /// queue is empty. `None` once the queue is closed *and* drained —
    /// the worker-thread exit signal.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.len > 0 {
                let idx = inner.cursor % inner.per_client.len();
                let (_, q) = &mut inner.per_client[idx];
                let job = q.pop_front().expect("non-empty client queues only");
                if q.is_empty() {
                    inner.per_client.remove(idx);
                    // The next client now sits at `idx`; leaving the
                    // cursor there continues the rotation.
                    if !inner.per_client.is_empty() {
                        inner.cursor = idx % inner.per_client.len();
                    } else {
                        inner.cursor = 0;
                    }
                } else {
                    inner.cursor = (idx + 1) % inner.per_client.len();
                }
                inner.len -= 1;
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Stop admitting; queued jobs still drain through [`pop`](Self::pop),
    /// after which every popping worker receives `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Drop every queued job of a disconnected client, returning them so
    /// the server can account for the cancellations.
    pub fn remove_client(&self, client: u64) -> Vec<QueuedJob> {
        let mut inner = self.inner.lock().unwrap();
        let mut removed = Vec::new();
        if let Some(idx) = inner.per_client.iter().position(|(c, _)| *c == client) {
            let (_, q) = inner.per_client.remove(idx);
            inner.len -= q.len();
            removed.extend(q);
            if inner.cursor > idx {
                inner.cursor -= 1;
            }
            if !inner.per_client.is_empty() {
                inner.cursor %= inner.per_client.len();
            } else {
                inner.cursor = 0;
            }
        }
        removed
    }

    /// Drop one queued job (a `Cancel` frame that arrived before a
    /// worker claimed it). True when the job was found and removed.
    pub fn remove_job(&self, client: u64, id: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Some(idx) = inner.per_client.iter().position(|(c, _)| *c == client) else {
            return false;
        };
        let (_, q) = &mut inner.per_client[idx];
        let Some(pos) = q.iter().position(|j| j.id == id) else {
            return false;
        };
        q.remove(pos);
        inner.len -= 1;
        if inner.per_client[idx].1.is_empty() {
            inner.per_client.remove(idx);
            if inner.cursor > idx {
                inner.cursor -= 1;
            }
            if !inner.per_client.is_empty() {
                inner.cursor %= inner.per_client.len();
            } else {
                inner.cursor = 0;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_core::prelude::CampaignConfig;
    use anacin_miniapps::Pattern;

    fn job(client: u64, id: u64) -> QueuedJob {
        QueuedJob {
            client,
            id,
            spec: JobSpec::Campaign {
                config: CampaignConfig::new(Pattern::MessageRace, 4).runs(2),
            },
            enqueued: Instant::now(),
            cancel: CancelToken::new(),
        }
    }

    fn pop_order(q: &AdmissionQueue, n: usize) -> Vec<(u64, u64)> {
        (0..n)
            .map(|_| {
                let j = q.pop().unwrap();
                (j.client, j.id)
            })
            .collect()
    }

    #[test]
    fn round_robin_across_clients_fifo_within() {
        let q = AdmissionQueue::new(16);
        // Client 1 floods; client 2 then submits one job.
        for id in 0..4 {
            q.push(job(1, id)).unwrap();
        }
        q.push(job(2, 100)).unwrap();
        // Client 2's single job is served second, not fifth.
        assert_eq!(
            pop_order(&q, 5),
            vec![(1, 0), (2, 100), (1, 1), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn three_clients_interleave_fairly() {
        let q = AdmissionQueue::new(16);
        for id in 0..2 {
            for client in 1..=3 {
                q.push(job(client, id)).unwrap();
            }
        }
        assert_eq!(
            pop_order(&q, 6),
            vec![(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn capacity_refuses_with_full() {
        let q = AdmissionQueue::new(2);
        q.push(job(1, 0)).unwrap();
        q.push(job(1, 1)).unwrap();
        assert_eq!(q.push(job(1, 2)), Err(AdmitError::Full));
        assert_eq!(q.push(job(2, 0)), Err(AdmitError::Full));
        // Popping frees capacity again.
        q.pop().unwrap();
        q.push(job(2, 0)).unwrap();
    }

    #[test]
    fn close_drains_then_signals_workers() {
        let q = AdmissionQueue::new(4);
        q.push(job(1, 0)).unwrap();
        q.close();
        assert_eq!(q.push(job(1, 1)), Err(AdmitError::Closed));
        assert_eq!(pop_order(&q, 1), vec![(1, 0)]);
        assert!(q.pop().is_none(), "closed and drained");
    }

    #[test]
    fn disconnect_removes_only_that_client() {
        let q = AdmissionQueue::new(8);
        q.push(job(1, 0)).unwrap();
        q.push(job(2, 0)).unwrap();
        q.push(job(1, 1)).unwrap();
        let dropped = q.remove_client(1);
        assert_eq!(dropped.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(pop_order(&q, 1), vec![(2, 0)]);
    }

    #[test]
    fn cancel_removes_one_queued_job() {
        let q = AdmissionQueue::new(8);
        q.push(job(1, 0)).unwrap();
        q.push(job(1, 1)).unwrap();
        assert!(q.remove_job(1, 0));
        assert!(!q.remove_job(1, 0), "already gone");
        assert_eq!(pop_order(&q, 1), vec![(1, 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        use std::sync::Arc;
        let q = Arc::new(AdmissionQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|j| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(job(1, 7)).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));
    }
}
