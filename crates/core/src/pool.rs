//! A small scoped thread pool for fleet workloads.
//!
//! This is the workspace's one threading facility: plain
//! `std::thread::scope` workers over **contiguous chunks** of a work
//! list. Kernels below it (deposit, gather, push, GEMM) are sequential;
//! parallelism is across independent sessions. The partition is deterministic —
//! item `i` always lands in chunk `i / ceil(len / threads)` — which is
//! what gives the engine's ensemble scheduler per-session determinism:
//! a session is driven by exactly one worker, and regrouping sessions
//! into different thread counts never changes any session's own
//! arithmetic (see `engine::ensemble`).
//!
//! Threads are spawned per [`for_each_chunk`] call and joined before it
//! returns. Callers amortize the spawn cost by handing the pool
//! *long-running* chunk tasks (e.g. "drive these sessions to
//! completion"), not per-step closures.

/// Number of worker threads the machine can usefully run —
/// `std::thread::available_parallelism`, with a serial fallback when the
/// runtime cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The contiguous chunk length that splits `len` items over `threads`
/// workers (ceiling division; the last chunk may be shorter).
pub fn chunk_len(len: usize, threads: usize) -> usize {
    let threads = threads.max(1);
    len.div_ceil(threads.min(len.max(1)))
}

/// Runs `work` over contiguous chunks of `items`, one worker thread per
/// chunk, and joins them all before returning. `work` receives the chunk
/// index and the chunk's mutable slice; with `threads <= 1` (or a single
/// chunk) everything runs inline on the caller's thread — same partition,
/// no spawn.
///
/// The chunk partition is [`chunk_len`]-sized and deterministic, so for
/// any `threads` the items of chunk `c` are
/// `items[c * chunk_len .. (c + 1) * chunk_len]`.
pub fn for_each_chunk<T, F>(threads: usize, items: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    let size = chunk_len(items.len(), threads);
    if threads <= 1 || size >= items.len() {
        work(0, items);
        return;
    }
    std::thread::scope(|scope| {
        for (c, chunk) in items.chunks_mut(size).enumerate() {
            let work = &work;
            scope.spawn(move || work(c, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_covers_all_items() {
        assert_eq!(chunk_len(10, 1), 10);
        assert_eq!(chunk_len(10, 3), 4); // 4 + 4 + 2
        assert_eq!(chunk_len(10, 4), 3); // 3 + 3 + 3 + 1
        assert_eq!(chunk_len(3, 8), 1);
        assert_eq!(chunk_len(0, 4), 0);
    }

    #[test]
    fn every_item_visited_exactly_once_at_any_thread_count() {
        for threads in [1usize, 2, 3, 7, 16] {
            let mut items = vec![0u32; 23];
            for_each_chunk(threads, &mut items, |_, chunk| {
                for v in chunk {
                    *v += 1;
                }
            });
            assert!(items.iter().all(|&v| v == 1), "threads = {threads}");
        }
    }

    #[test]
    fn chunk_indices_match_the_documented_partition() {
        let mut items: Vec<(usize, usize)> = (0..10).map(|i| (i, usize::MAX)).collect();
        for_each_chunk(3, &mut items, |c, chunk| {
            for item in chunk {
                item.1 = c;
            }
        });
        let size = chunk_len(10, 3);
        for (i, &(_, c)) in items.iter().enumerate() {
            assert_eq!(c, i / size, "item {i}");
        }
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
