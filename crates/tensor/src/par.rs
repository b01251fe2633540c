//! Scoped-thread fan-out for independent host work items.
//!
//! The vendored `rayon` is a sequential stub, so host code that wants the
//! machine's cores — seeding a model's layers, loading its stripes, running
//! a batch's utterances — goes through [`par_map`]. Items are handed out one
//! at a time from a shared queue, so a few large items (FFN stripes) and
//! many small ones (bias rows) still balance across threads; results come
//! back in input order whatever the split, so callers stay deterministic.

use std::sync::Mutex;

/// `items.map(f).collect()`, with the items spread over up to
/// `available_parallelism` scoped threads. Results come back in input
/// order, and a panic in any worker resumes on the caller. With one core
/// (or one item) it runs inline and starts no thread.
///
/// The items may be borrowed (`slice.iter()`), mutably borrowed
/// (`slice.iter_mut()`, each item reaches exactly one worker) or owned.
pub fn par_map<I, R>(items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(items.len());
    if threads <= 1 {
        return items.map(f).collect();
    }
    let queue = Mutex::new(items.enumerate());
    let (f, queue) = (&f, &queue);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // the guard drops at the end of this statement, so
                        // `f` runs unlocked and a panic in `f` cannot poison it
                        let next = queue.lock().expect("taking an item never panics").next();
                        match next {
                            Some((i, item)) => out.push((i, f(item))),
                            None => return out,
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_input_order_for_any_item_count() {
        for n in [0usize, 1, 2, 3, 7, 8, 37] {
            let items: Vec<usize> = (0..n).collect();
            let want: Vec<usize> = items.iter().map(|&i| i * 3 + 1).collect();
            assert_eq!(par_map(items.iter(), |&i| i * 3 + 1), want, "{} items", n);
        }
    }

    #[test]
    fn mutable_items_each_reach_one_worker() {
        let mut slots = vec![0u64; 101];
        let seen = par_map(slots.iter_mut().enumerate(), |(i, s)| {
            *s += i as u64 + 1;
            i
        });
        assert_eq!(seen, (0..101).collect::<Vec<_>>());
        assert!(slots.iter().enumerate().all(|(i, &s)| s == i as u64 + 1));
    }

    #[test]
    fn uneven_items_still_come_back_in_order() {
        // One heavy item first: the queue hands the rest to other workers.
        let out = par_map(0..16usize, |i| {
            let i = i as u64;
            let spin = if i == 0 { 200_000 } else { 10 };
            (0..spin).fold(i, |a, b| a.wrapping_mul(31).wrapping_add(b)) ^ i
        });
        let want: Vec<u64> = (0..16u64)
            .map(|i| {
                let spin = if i == 0 { 200_000 } else { 10 };
                (0..spin).fold(i, |a, b| a.wrapping_mul(31).wrapping_add(b)) ^ i
            })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_worker_panic_resumes_on_the_caller() {
        let _ = par_map(0..8usize, |i| {
            if i == 5 {
                panic!("item 5");
            }
            i
        });
    }
}
