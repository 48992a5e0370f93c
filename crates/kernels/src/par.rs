//! The workspace's one ordered worker map.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f` of every item, computed on up to `threads` scoped workers that
/// claim items in order; results come back in item order, so they never
/// depend on thread timing. Spans a worker starts nest under the caller's
/// innermost span (see [`anacin_obs::within_span`]).
///
/// A single worker maps on the calling thread: a spawned one would
/// allocate the results in a malloc arena of its own, which raised a
/// one-thread daemon's peak RSS by a tenth.
pub fn ordered_map<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let parent = anacin_obs::current_span_path();
    let next = AtomicUsize::new(0);
    let (f, next, parent) = (&f, &next, parent.as_deref());
    let mut out: Vec<(usize, U)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    anacin_obs::within_span(parent, || {
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(k) else { break };
                            local.push((k, f(item)));
                        }
                        local
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|&(k, _)| k);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_obs::MetricsRegistry;

    #[test]
    fn results_keep_item_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [0, 1, 2, 8, 200] {
            let out = ordered_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
        assert!(ordered_map(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn worker_spans_nest_under_the_caller() {
        for threads in [1, 3] {
            let m = MetricsRegistry::new();
            {
                let _stage = m.span("stage");
                ordered_map(&[1, 2, 3], threads, |_| drop(m.span("item")));
            }
            let r = m.report();
            assert_eq!(r.span("stage/item").map(|s| s.count), Some(3), "{threads}");
            assert!(r.span("item").is_none(), "{threads}");
        }
    }
}
