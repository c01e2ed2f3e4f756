//! Thread-parallel `MatchJoin` execution.
//!
//! The expensive phases of the ranked fixpoint ([`crate::matchjoin`]) are
//! per-pattern-edge and independent: compacting each merged match set into
//! CSR form, and computing initial support counters. This module fans those
//! phases across OS threads (`std::thread::scope` — the build environment
//! vendors no `rayon`), one work unit per pattern edge, so the speedup of
//! these stages is capped at `|Eq|`. The drain itself runs in *rank waves*:
//! each wave removes the whole lowest-rank bucket up front, gathers the
//! support hits of every removed candidate in parallel (a read-only scan of
//! the reverse CSRs), then applies the decrements sequentially in fixed
//! wave order — so heavy pruning no longer serializes on the last stage,
//! and the result stays bit-for-bit identical to the sequential drain (the
//! worklist closure is confluent; see `par_drain_and_extract`).
//!
//! Determinism: work units are fixed by index — never by timing — workers
//! write results into slots owned by their unit, and every merge of
//! per-unit results runs in unit order, so the output is bit-for-bit
//! identical to [`JoinStrategy::RankedBottomUp`](crate::matchjoin::JoinStrategy)
//! regardless of thread interleaving or thread count (the seeded proptests
//! in `tests/engine.rs` sweep thread counts). With `threads == 1` every
//! stage runs inline with no spawn overhead.

use crate::containment::ContainmentPlan;
use crate::matchjoin::{self, merge_step, EdgeCsr, JoinError, JoinStats, MergedSets};
use crate::view::ViewExtensions;
use gpv_graph::{BitSet, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default worker count: the machine's available parallelism, probed once
/// and cached. `available_parallelism` is a syscall, and this sits on the
/// per-execution hot path (`QueryEngine::exec_for`, `run_fixpoint`), so
/// paying it per query would tax every single plan/join for a value that
/// never changes over the process lifetime.
pub fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How a [`par_map`] worker failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ParError {
    /// A work item panicked; the payload is the failing index.
    Panicked(usize),
    /// A worker thread died outside the per-item catch (its `join` failed),
    /// so no item index is known. Callers must *not* invent one — this used
    /// to surface as the sentinel `usize::MAX`, which
    /// [`JoinError::WorkerPanicked`] then reported as a nonsense edge index.
    Lost,
}

/// Runs `f(0..n)` across `threads` workers (atomic work-stealing counter),
/// returning results in index order. Inline when `threads <= 1` or the job
/// is trivially small (where a panic propagates normally, exactly like the
/// sequential executor). In the threaded path a panicking worker no longer
/// takes the whole process down through a context-free `expect`: the panic
/// is caught per work item and resurfaced as [`ParError::Panicked`] with
/// the failing index, so callers can attach executor context
/// ([`JoinError::WorkerPanicked`]); a worker lost outside the per-item
/// catch resurfaces as [`ParError::Lost`] ([`JoinError::WorkerLost`]).
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, ParError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return Ok((0..n).map(f).collect());
    }
    let counter = AtomicUsize::new(0);
    let workers = threads.min(n);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failed: Option<ParError> = None;
    // Prefer the lowest panicked index as the reported failure; a lost
    // worker only wins when no indexed panic was observed.
    let mut note = |e: ParError| {
        failed = Some(match (failed, e) {
            (Some(ParError::Panicked(p)), ParError::Panicked(i)) => ParError::Panicked(p.min(i)),
            (Some(ParError::Panicked(p)), ParError::Lost) => ParError::Panicked(p),
            (_, e) => e,
        });
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let counter = &counter;
                let f = &f;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break Ok(local);
                        }
                        // `f` is a pure per-index computation shared by all
                        // workers; observing it mid-panic is safe because a
                        // failed index aborts the whole map.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, v)),
                            Err(_) => break Err(i),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(local)) => {
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                }
                Ok(Err(i)) => note(ParError::Panicked(i)),
                // Unreachable in practice (worker bodies catch panics), but
                // keep the process alive if it ever happens — and say "a
                // worker was lost" instead of fabricating an edge index.
                Err(_) => note(ParError::Lost),
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
}

/// Answers `Qs` from views with the parallel executor and an explicit
/// thread count (`0` = auto). Output is identical to
/// [`matchjoin::match_join`]; only wall-clock differs.
pub fn par_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    threads: usize,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    par_fixpoint(q, merged, threads)
}

/// The parallel executor over caller-supplied merged sets (e.g. built by
/// the [`EdgeSource`](crate::plan::EdgeSource)-honoring merge): fans the
/// build/support phases across `threads` workers (`0` = auto), then runs
/// the rank-wave drain.
pub(crate) fn par_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    threads: usize,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let threads = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let mut stats = JoinStats {
        merged_pairs: merged.iter().map(|s| s.len() as u64).sum(),
        ..JoinStats::default()
    };
    let sets = par_ranked_fixpoint(q, merged, &mut stats, threads)?;
    Ok((matchjoin::assemble(q, sets), stats))
}

/// Refined per-edge match sets (`None` = empty result), or a caught worker
/// panic.
pub(crate) type FixpointOutcome = Result<Option<Vec<Vec<(NodeId, NodeId)>>>, JoinError>;

/// The ranked fixpoint with parallel build/support phases, one work unit
/// per pattern edge. Semantically identical to
/// [`matchjoin::ranked_fixpoint`]; per-edge stage results merge in fixed
/// edge order. `Err` only on a caught worker panic
/// ([`JoinError::WorkerPanicked`] with the failing edge index).
pub(crate) fn par_ranked_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    stats: &mut JoinStats,
    threads: usize,
) -> FixpointOutcome {
    if threads <= 1 {
        // No spare workers: take the sequential path exactly (identical
        // output either way; this avoids the staging allocations).
        return Ok(matchjoin::ranked_fixpoint(q, merged, stats));
    }
    let ne = q.edge_count();
    // Compaction must assign dense ids in first-occurrence order to stay
    // deterministic, so it stays sequential (O(total pairs), hash-bound).
    let (index, rev_index) = matchjoin::compact_index(&merged);
    let m = index.len();

    // Stage 1 (parallel): CSR build, one unit per edge.
    let csrs: Vec<EdgeCsr> = par_map(ne, threads, |ei| {
        matchjoin::build_edge_csr(&merged[ei], &index, m)
    })
    .map_err(JoinError::from)?;
    stats.edge_visits += ne as u64;

    // Stage 2 (sequential, cheap): candidate sets over pattern nodes.
    let Some(cand) = matchjoin::build_candidates(q, &csrs, m) else {
        return Ok(None);
    };

    // Stage 3 (parallel): per-edge support counters + zero-support seeds.
    let edge_src: Vec<(PatternNodeId, PatternNodeId)> =
        (0..ne).map(|ei| q.edge(PatternEdgeId(ei as u32))).collect();
    let per_edge: Vec<(Vec<u32>, Vec<u32>)> = par_map(ne, threads, |ei| {
        let (u, t) = edge_src[ei];
        matchjoin::edge_support(&csrs[ei], &cand[u.index()], &cand[t.index()], m)
    })
    .map_err(JoinError::from)?;
    stats.edge_visits += ne as u64;
    let mut support: Vec<Vec<u32>> = Vec::with_capacity(ne);
    let mut seeds: Vec<(PatternNodeId, Vec<u32>)> = Vec::with_capacity(ne);
    for (ei, (sup, zero)) in per_edge.into_iter().enumerate() {
        support.push(sup);
        seeds.push((edge_src[ei].0, zero));
    }

    // Stage 4: the drain in parallel rank waves + the fanned final filter.
    par_drain_and_extract(q, &csrs, cand, support, &seeds, &rev_index, stats, threads)
}

/// Minimum wave width before the gather phase fans across workers: below
/// this, spawning scoped threads costs more than the read-only CSR scans
/// they would do. The threshold affects scheduling only — apply order is
/// fixed either way, so the output is identical.
const PAR_WAVE_MIN: usize = 256;

/// Stage 4 of every parallel plan: the drain, parallelized in *rank waves*
/// so that heavy pruning (e.g. after the union merge) does not serialize
/// on the last stage.
///
/// Each iteration drains the entire lowest non-empty rank bucket as one
/// wave:
///
/// 1. **remove** (sequential, pop order): every wave candidate leaves its
///    `cand` set; an emptied set short-circuits to the empty result exactly
///    like the sequential drain;
/// 2. **gather** (parallel when the wave is ≥ [`PAR_WAVE_MIN`]): for each
///    removed `(u, v)`, scan the reverse CSR of every in-edge of `u` and
///    collect the surviving witnesses `w ∈ cand[u0]` whose support the
///    removal decrements. `cand` and `scheduled` are not written during the
///    gather, so the scans are read-only and embarrassingly parallel;
/// 3. **apply** (sequential, fixed wave order): re-check the
///    `cand`/`scheduled` guards, decrement support counters, schedule
///    candidates that hit zero.
///
/// Equivalence with [`matchjoin::drain_and_extract`]: the drain computes
/// the closure of "support exhausted" removals, which is confluent — a
/// decrement for `(e0, w)` happens at most once per removed witness, the
/// guards make removals idempotent, and counters of removed candidates are
/// never consulted again — so the surviving `cand` sets (and therefore the
/// answer) are independent of removal order. Wave-mates removed up front
/// fail the `cand.contains` guard exactly where the sequential drain's
/// `scheduled` guard would have skipped them. Determinism across thread
/// counts holds because wave boundaries are functions of bucket contents
/// only and the apply phase runs in fixed wave order (`tests/engine.rs`
/// sweeps thread counts).
#[allow(clippy::too_many_arguments)] // mirrors drain_and_extract + threads
pub(crate) fn par_drain_and_extract(
    q: &Pattern,
    csrs: &[EdgeCsr],
    mut cand: Vec<BitSet>,
    mut support: Vec<Vec<u32>>,
    seeds: &[(PatternNodeId, Vec<u32>)],
    rev_index: &[NodeId],
    stats: &mut JoinStats,
    threads: usize,
) -> FixpointOutcome {
    let np = q.node_count();
    let ne = q.edge_count();
    let m = rev_index.len();
    let cond = q.condensation();
    let max_rank = (0..np as u32).map(|u| cond.rank(u)).max().unwrap_or(0) as usize;

    let mut buckets: Vec<VecDeque<(PatternNodeId, u32)>> = vec![VecDeque::new(); max_rank + 1];
    let mut scheduled: Vec<BitSet> = vec![BitSet::new(m); np];
    for (u, vs) in seeds {
        for &v in vs {
            if scheduled[u.index()].insert(v as usize) {
                buckets[cond.rank(u.0) as usize].push_back((*u, v));
            }
        }
    }

    // One gathered unit per removed candidate: (edge visits, support hits).
    type Gathered = (u64, Vec<(PatternNodeId, usize, u32)>);

    while let Some(rank) = (0..buckets.len()).find(|&r| !buckets[r].is_empty()) {
        let wave: Vec<(PatternNodeId, u32)> = buckets[rank].drain(..).collect();

        // Phase 1: removals, in pop order.
        let mut removed: Vec<(PatternNodeId, u32)> = Vec::with_capacity(wave.len());
        for &(u, v) in &wave {
            if !cand[u.index()].remove(v as usize) {
                continue;
            }
            stats.removals += 1;
            if cand[u.index()].is_empty() {
                return Ok(None);
            }
            removed.push((u, v));
        }

        // Phase 2: read-only gather of support hits per removed candidate.
        let gather = |i: usize| -> Gathered {
            let (u, v) = removed[i];
            let mut visits = 0u64;
            let mut hits = Vec::new();
            for &(u0, e0) in q.in_edges(u) {
                visits += 1;
                let (ro, rs) = &csrs[e0.index()].rev;
                let (a, b) = (ro[v as usize] as usize, ro[v as usize + 1] as usize);
                for &w in &rs[a..b] {
                    if cand[u0.index()].contains(w as usize) {
                        hits.push((u0, e0.index(), w));
                    }
                }
            }
            (visits, hits)
        };
        let gathered: Vec<Gathered> = if threads > 1 && removed.len() >= PAR_WAVE_MIN {
            par_map(removed.len(), threads, gather).map_err(JoinError::from)?
        } else {
            (0..removed.len()).map(gather).collect()
        };

        // Phase 3: apply decrements in fixed wave order.
        for (visits, hits) in gathered {
            stats.edge_visits += visits;
            for (u0, e0, w) in hits {
                if cand[u0.index()].contains(w as usize)
                    && !scheduled[u0.index()].contains(w as usize)
                {
                    let s = &mut support[e0][w as usize];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        scheduled[u0.index()].insert(w as usize);
                        buckets[cond.rank(u0.0) as usize].push_back((u0, w));
                    }
                }
            }
        }
    }

    // Final per-edge filter, fanned across workers (pure per-edge).
    let filtered: Vec<Vec<(NodeId, NodeId)>> = par_map(ne, threads, |ei| {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        matchjoin::filter_surviving(
            &csrs[ei].pairs,
            &cand[u.index()],
            &cand[t.index()],
            rev_index,
        )
    })
    .map_err(JoinError::from)?;
    stats.edge_visits += ne as u64;
    if filtered.iter().any(Vec::is_empty) {
        return Ok(None);
    }
    Ok(Some(filtered))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4] {
            let out = par_map(100, threads, |i| i * i).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty() {
        assert_eq!(par_map(0, 4, |i| i), Ok(Vec::<usize>::new()));
    }

    #[test]
    fn par_map_catches_worker_panic() {
        // Silence the default panic hook for the intentional panics below
        // (the worker catches them; the hook would still print backtraces).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = par_map(16, 4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
        std::panic::set_hook(hook);
        assert_eq!(
            out,
            Err(ParError::Panicked(3)),
            "failing index resurfaces, process survives"
        );
    }

    /// Regression: a worker lost outside the per-item catch used to be
    /// reported as `WorkerPanicked(usize::MAX)` — a nonsense edge index
    /// that callers would happily print. The conversion must produce the
    /// distinct `WorkerLost` variant instead, and `Panicked` must never
    /// carry the old sentinel.
    #[test]
    fn lost_worker_maps_to_worker_lost_not_a_fake_index() {
        assert_eq!(JoinError::from(ParError::Lost), JoinError::WorkerLost);
        assert_eq!(
            JoinError::from(ParError::Panicked(3)),
            JoinError::WorkerPanicked(3)
        );
        let msg = JoinError::WorkerLost.to_string();
        assert!(
            !msg.contains(&usize::MAX.to_string()),
            "no fabricated edge index in: {msg}"
        );
    }

    #[test]
    fn auto_threads_is_cached_and_stable() {
        let first = auto_threads();
        assert!(first >= 1);
        for _ in 0..3 {
            assert_eq!(auto_threads(), first);
        }
    }
}
