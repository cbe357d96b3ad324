//! Std-only parallel map and deterministic sharding.
//!
//! The experiment harnesses evaluate grids of independent configurations
//! (size × frequency, algorithm × workload), and the block-parallel
//! encoders shard one input across cores. Each work item touches no
//! shared state, so both split trivially. This module is a minimal
//! std-only pool: scoped threads pull work items off an atomic index, so
//! there are no external dependencies and no `'static` bounds on the
//! closures.
//!
//! Results come back in input order regardless of which worker ran them,
//! so harness output is deterministic and independent of the core count
//! (including the single-core case, which degrades to a plain map).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Cached worker override. `None` = not yet resolved (next read parses the
/// environment); `Some(inner)` = resolved, where `inner` is the effective
/// override (`None` = autodetect).
static WORKER_OVERRIDE: Mutex<Option<Option<usize>>> = Mutex::new(None);

/// Parses `UPARC_SWEEP_THREADS` from the environment (no caching).
///
/// A present-but-invalid value (empty, zero, garbage, or non-unicode)
/// falls back to autodetection so a typo never breaks a run, but the
/// fallback is *loud*: a warning goes to stderr instead of the variable
/// being silently ignored.
fn parse_env_override() -> Option<usize> {
    match std::env::var("UPARC_SWEEP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!(
                    "warning: UPARC_SWEEP_THREADS={v:?} is not a positive integer; \
                     falling back to autodetected parallelism"
                );
                None
            }
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            eprintln!(
                "warning: UPARC_SWEEP_THREADS={raw:?} is not valid unicode; \
                 falling back to autodetected parallelism"
            );
            None
        }
    }
}

/// The effective worker override, if any: the value set by
/// [`pin_workers`], else the cached parse of `UPARC_SWEEP_THREADS`.
///
/// The environment variable is parsed (and, if malformed, warned about)
/// **once per process**, not on every sweep — every consumer of the
/// override ([`worker_count`], and through it `parallel_map`, the
/// block-parallel codecs, and fleet sharding) reads this one cached
/// accessor. Call [`unpin_workers`] to force a re-read after mutating the
/// variable at runtime (tests do this; production code should prefer
/// [`pin_workers`]).
#[must_use]
pub fn worker_override() -> Option<usize> {
    let mut cached = WORKER_OVERRIDE.lock().expect("worker override poisoned");
    *cached.get_or_insert_with(parse_env_override)
}

/// Pins the sweep worker count programmatically for the rest of the
/// process (until the next [`pin_workers`]/[`unpin_workers`] call),
/// overriding `UPARC_SWEEP_THREADS`. Benches use this to sweep worker
/// counts without mutating process-global environment variables.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn pin_workers(workers: usize) {
    assert!(workers > 0, "cannot pin zero sweep workers");
    *WORKER_OVERRIDE.lock().expect("worker override poisoned") = Some(Some(workers));
}

/// Clears any pinned worker count *and* the cached environment parse, so
/// the next [`worker_override`] read re-parses `UPARC_SWEEP_THREADS`.
pub fn unpin_workers() {
    *WORKER_OVERRIDE.lock().expect("worker override poisoned") = None;
}

/// Number of worker threads a sweep over `items` work items will use: the
/// pinned/`UPARC_SWEEP_THREADS` override from [`worker_override`] if set
/// (so CI and laptops can pin parallelism), otherwise the machine's
/// available parallelism — in both cases clamped to the work count and at
/// least 1.
#[must_use]
pub fn worker_count(items: usize) -> usize {
    let cores = worker_override()
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    cores.min(items).max(1)
}

/// Splits `items` into `n` contiguous shards whose sizes differ by at
/// most one (earlier shards get the remainder). Empty shards are omitted,
/// so fewer than `n` shards come back when `items` is short.
///
/// Sharding is purely positional — independent of core count and of
/// `UPARC_SWEEP_THREADS` — so a grid dispatched shard-by-shard (e.g. one
/// event-loop scenario per shard) is decomposed identically on every host.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn shards<T>(items: &[T], n: usize) -> Vec<&[T]> {
    assert!(n > 0, "cannot shard into zero shards");
    let len = items.len();
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n.min(len));
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(&items[start..start + size]);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// `f` runs on multiple threads concurrently; items are handed out
/// one at a time from a shared atomic cursor, so uneven cell costs
/// (large bitstreams vs small) balance automatically.
///
/// # Panics
///
/// Propagates a panic from `f` (the pool panics once the workers join).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = worker_count(items.len());
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut indexed: Vec<(usize, R)> = chunks.drain(..).flatten().collect();
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * x);
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn worker_count_honors_env_override() {
        // Env vars are process-global and tests run concurrently, so this
        // test owns the variable: set → check → clear → check. Other tests
        // here don't read it. The parse is cached, so every mutation is
        // followed by `unpin_workers()` to force a re-read.
        std::env::set_var("UPARC_SWEEP_THREADS", "3");
        unpin_workers();
        assert_eq!(worker_count(10_000), 3);
        assert_eq!(worker_count(2), 2, "still clamped to the work count");
        std::env::set_var("UPARC_SWEEP_THREADS", "not-a-number");
        unpin_workers();
        let fallback = worker_count(10_000);
        assert!(fallback >= 1, "garbage value falls back to autodetect");
        std::env::set_var("UPARC_SWEEP_THREADS", "0");
        unpin_workers();
        assert!(worker_count(10_000) >= 1, "zero falls back to autodetect");
        std::env::remove_var("UPARC_SWEEP_THREADS");
        unpin_workers();
        assert!(worker_count(10_000) >= 1);

        // Programmatic pinning wins over the environment and unpinning
        // restores the env-driven path.
        std::env::set_var("UPARC_SWEEP_THREADS", "2");
        unpin_workers();
        pin_workers(5);
        assert_eq!(worker_count(10_000), 5, "pin overrides the env var");
        unpin_workers();
        assert_eq!(worker_count(10_000), 2, "unpin re-reads the env var");
        std::env::remove_var("UPARC_SWEEP_THREADS");
        unpin_workers();
    }

    #[test]
    fn shards_are_contiguous_and_balanced() {
        let items: Vec<u32> = (0..10).collect();
        let s = shards(&items, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], &[0, 1, 2, 3]);
        assert_eq!(s[1], &[4, 5, 6]);
        assert_eq!(s[2], &[7, 8, 9]);
        // Rebuilding the input proves coverage without overlap.
        let rebuilt: Vec<u32> = s.concat();
        assert_eq!(rebuilt, items);

        // More shards than items: one singleton shard per item.
        let few = shards(&items[..2], 5);
        assert_eq!(few.len(), 2);
        assert!(few.iter().all(|s| s.len() == 1));

        // Empty input and the n = 1 degenerate case.
        assert!(shards(&items[..0], 4).is_empty());
        assert_eq!(shards(&items, 1), vec![&items[..]]);
    }

    #[test]
    fn uneven_workloads_balance() {
        // Cells with wildly different costs still land in order.
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(&items, |&i| {
            let spin = if i % 7 == 0 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k).rotate_left(1);
            }
            (i, acc & 1)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }
}
