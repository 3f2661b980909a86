// One persistent, machine-wide, work-stealing executor.
//
// Before this pool, every scheduling layer owned its own threads: each
// run_batch() call spawned and joined a vector of std::threads, each
// solve_tempered() call built a fresh per-batch replica pool, and
// service::Service nested dedicated worker threads *above* both — so K
// concurrent submissions × BatchParams::threads could oversubscribe the
// machine K-fold, while a tempered batch left every core beyond its
// replica count idle.  ExecutorPool replaces all three with one lazily
// started pool of core::thread_budget() − 1 workers plus the calling
// thread:
//
//   * per-worker deques + a shared injection queue: a thread submitting
//     child work pushes tokens onto its own deque (LIFO — depth-first,
//     cache-warm), idle workers steal oldest-first (breadth-first, so
//     top-level batches spread before their children);
//   * caller participation: run() executes tasks on the calling thread
//     too, so a width-1 or single-task dispatch touches no queue and
//     spawns nothing, and a blocked fork-join can never deadlock waiting
//     for its own worker;
//   * two-level task trees: a task may itself call run() — the nested
//     group joins the *ambient budget* of its batch, so a tempered batch
//     of R-replica runs exposes runs×R-way parallelism while the whole
//     tree still respects one width cap (BatchParams::threads budgets the
//     tree, not one level).  A nested group that cannot gain a thread —
//     one task, or a tree whose every slot is already held (a width-2
//     ladder's two restarts, an archipelago's two island threads) — runs
//     inline on its caller under the same budget: no group, no token, no
//     worker wake-up.  It re-checks the tree after every task and hands
//     the tasks still left to a normal dispatch once a slot frees, so a
//     helper released by a sibling fan can join mid-fan;
//   * idle parking: workers with nothing claimable park on a condition
//     variable and wake on new tokens, budget-slot releases, or shutdown;
//   * observability: dispatch/steal/task/park counters, queue depth, and
//     worker busy-time utilization (PoolStats), surfaced through
//     service::Service::stats() and the sched bench.
//
// Determinism contract: the pool decides only *where and when* a task
// index runs, never what it computes.  Every task submitted through the
// engine is a pure function of its index (run index, replica index) with
// order-fixed sequential aggregation after the join, so results are
// bit-identical at any budget, any width, and under adversarial
// schedulers — only wall clock changes.  (Proven by the chaos-executor
// and 1/2/max-thread identity tests.)
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "anneal/strategy.hpp"

namespace hycim::runtime {

/// Scheduler observability counters.  Monotonic over the pool lifetime
/// except `queue_depth` (instantaneous) and the derived utilization.
struct PoolStats {
  unsigned budget = 0;           ///< resolved thread budget (workers + caller)
  unsigned threads_spawned = 0;  ///< worker threads ever constructed
  unsigned workers_alive = 0;    ///< workers currently joinable
  std::size_t dispatches = 0;    ///< run() calls fanned out through the queues
  std::size_t inline_runs = 0;   ///< run() calls satisfied serially inline
  std::size_t tasks_executed = 0;  ///< individual task indices completed
  std::size_t steals = 0;  ///< tasks executed via a foreign deque / injection
  std::size_t parks = 0;   ///< worker idle-park events
  std::size_t posted = 0;  ///< one-shot jobs accepted via post()
  /// Secondary task exceptions dropped by the first-exception protocol: a
  /// group rethrows only the first failure at its join, so a second task
  /// failing in the same (already-cancelled) group would otherwise vanish
  /// without a trace.  A nonzero delta across a solve means a real error
  /// was masked by the one that got reported.
  std::size_t suppressed_exceptions = 0;
  std::size_t queue_depth = 0;  ///< group tokens currently enqueued
  double busy_seconds = 0.0;    ///< Σ worker time spent inside tasks
  double up_seconds = 0.0;      ///< wall clock since the first worker spawn
  double utilization = 0.0;     ///< busy / (workers_alive × up); 0 when cold
};

/// The persistent work-stealing pool.  All public methods are
/// thread-safe.  One process-wide instance (global()) serves every
/// scheduler; tests may construct private pools with explicit budgets.
class ExecutorPool {
 public:
  /// `budget` caps total schedulable threads (workers + one participating
  /// caller); 0 tracks core::thread_budget() dynamically, re-read at every
  /// dispatch so raising the knob grows the pool lazily.
  explicit ExecutorPool(unsigned budget = 0);
  /// Joins the workers.  No run()/post() may be in flight.
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  /// The process-wide pool, started lazily on first parallel dispatch.
  static ExecutorPool& global();

  /// Fork-join: executes tasks 0..count-1, each exactly once, and returns
  /// after all have completed; the first task exception is rethrown after
  /// the join (remaining tasks are skipped).  The calling thread
  /// participates, so count == 1, an effective width of 1, or a nested
  /// call whose task tree has no free slot runs inline with no queue
  /// traffic and no thread spawns (until a slot frees: the rest of such a
  /// fan is then dispatched).
  ///
  /// `width` caps how many threads execute this group concurrently
  /// (0 = the pool budget).  Called from inside a pool task, the group
  /// joins the ambient batch budget: the whole task tree — e.g. a
  /// tempered batch's runs and their replica segments — shares one
  /// concurrency cap, which is what keeps K concurrent batches from
  /// multiplying into oversubscription.  A nested width only narrows
  /// further (min with the ambient cap); it never widens the tree.
  void run(std::size_t count, const anneal::Task& task, unsigned width = 0);

  /// Fire-and-forget one-shot job on a pool worker (the service's async
  /// submission drainers).  Keeps at least one worker alive even at
  /// budget 1 so posted work always makes progress.
  void post(std::function<void()> job);

  /// The anneal::Executor view of run() with the given width cap — what
  /// the tempered solve path hands to ReplicaExchange.
  anneal::Executor executor(unsigned width = 0);

  /// The resolved thread budget at this instant.
  unsigned budget() const;

  /// Scheduler counters at this instant.
  PoolStats stats() const;

  /// Opaque implementation.  Public only so the translation unit's
  /// thread-local worker registration can name it; there is no out-of-TU
  /// definition to reach.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace hycim::runtime
