#include "runtime/executor_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_budget.hpp"

namespace hycim::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// The shared concurrency cap of one batch's whole task tree.  The root
/// run() call creates it; every nested group joins it, so runs and their
/// replica segments draw slots from one counter — K concurrent batches
/// each respect their own width and the pool's worker set bounds the
/// physical total.
struct Budget {
  unsigned limit = 1;
  std::atomic<unsigned> active{0};
};

bool has_free_slot(const Budget& budget) {
  return budget.active.load(std::memory_order_relaxed) < budget.limit;
}

/// One fork-join dispatch: `count` task indices claimed lock-free by up to
/// `cap` concurrent participants.  Tokens in the deques are shared_ptrs to
/// this, so a stale token (group already drained) is harmless to pop late.
struct TaskGroup {
  const anneal::Task* task = nullptr;
  std::size_t count = 0;
  unsigned cap = 1;  ///< participant cap of this group (≤ budget->limit)
  std::shared_ptr<Budget> budget;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<unsigned> participants{0};
  std::atomic<bool> cancelled{false};
  std::mutex mutex;  ///< guards failure; paired with done_cv
  std::condition_variable done_cv;
  std::exception_ptr failure;

  bool drained() const {
    return next.load(std::memory_order_relaxed) >= count;
  }
};

/// The ambient batch budget of the executing thread: set while a thread
/// runs a group's tasks, so nested run() calls join the same tree.
thread_local std::shared_ptr<Budget> tl_budget;

class ScopedAmbient {
 public:
  explicit ScopedAmbient(std::shared_ptr<Budget> budget)
      : saved_(std::move(tl_budget)) {
    tl_budget = std::move(budget);
  }
  ~ScopedAmbient() { tl_budget = std::move(saved_); }
  ScopedAmbient(const ScopedAmbient&) = delete;
  ScopedAmbient& operator=(const ScopedAmbient&) = delete;

 private:
  std::shared_ptr<Budget> saved_;
};

}  // namespace

struct ExecutorPool::Impl {
  explicit Impl(unsigned budget) : explicit_budget(budget) {}

  const unsigned explicit_budget;  ///< 0 = track core::thread_budget()

  struct Worker {
    std::mutex mutex;
    std::deque<std::shared_ptr<TaskGroup>> deque;  ///< back = newest
    std::thread thread;
  };

  // Workers are appended (never removed) under spawn_mutex; unique_ptr
  // keeps their addresses stable while the vector grows.
  std::mutex spawn_mutex;
  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<unsigned> worker_count{0};

  std::mutex inject_mutex;
  std::deque<std::shared_ptr<TaskGroup>> injection;  ///< front = oldest
  std::deque<std::function<void()>> jobs;

  // Idle parking: workers wait for the epoch to advance.  Bumped on token
  // pushes, posted jobs, budget-slot releases, and shutdown.
  std::mutex park_mutex;
  std::condition_variable park_cv;
  std::uint64_t epoch = 0;
  bool stopping = false;

  // Counters (PoolStats).
  std::atomic<unsigned> threads_spawned{0};
  std::atomic<std::size_t> dispatches{0};
  std::atomic<std::size_t> inline_runs{0};
  std::atomic<std::size_t> tasks_executed{0};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> parks{0};
  std::atomic<std::size_t> posted{0};
  std::atomic<std::size_t> suppressed_exceptions{0};
  std::atomic<std::size_t> queue_depth{0};
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<bool> started{false};
  Clock::time_point start_time{};

  unsigned resolved_budget() const {
    const unsigned budget =
        explicit_budget != 0 ? explicit_budget : core::thread_budget();
    return budget == 0 ? 1 : budget;
  }

  void bump_epoch() {
    {
      const std::lock_guard<std::mutex> lock(park_mutex);
      ++epoch;
    }
    park_cv.notify_all();
  }

  /// Grows the worker set to `target` threads (idempotent, monotonic).
  void ensure_workers(unsigned target) {
    if (worker_count.load(std::memory_order_acquire) >= target) return;
    const std::lock_guard<std::mutex> lock(spawn_mutex);
    if (!started.exchange(true)) start_time = Clock::now();
    while (workers.size() < target) {
      workers.push_back(std::make_unique<Worker>());
      Worker* worker = workers.back().get();
      worker->thread = std::thread([this, worker] { worker_main(*worker); });
      threads_spawned.fetch_add(1, std::memory_order_relaxed);
      worker_count.store(static_cast<unsigned>(workers.size()),
                         std::memory_order_release);
    }
  }

  /// Executes task `index` on the calling thread; counted even if it
  /// throws, as claim_loop counts a failing task.
  void run_one(const anneal::Task& task, std::size_t index) {
    try {
      task(index);
    } catch (...) {
      tasks_executed.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    tasks_executed.fetch_add(1, std::memory_order_relaxed);
  }

  /// Parallel fork-join of `count` tasks: the caller claims indices
  /// alongside up to `cap` - 1 helpers drawn from `budget`.  A root call
  /// holds one slot of its fresh budget for the caller; a nested caller
  /// already holds one.  Rethrows the first failure after the join.
  void fork_join(std::size_t count, const anneal::Task& task, unsigned cap,
                 std::shared_ptr<Budget> budget, bool root);

  /// Marks one task index finished; the last one wakes the joining caller.
  static void complete_index(TaskGroup& group) {
    if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(group.mutex);
      group.done_cv.notify_all();
    }
  }

  /// Claims and executes task indices until the group is drained.  The
  /// first exception cancels the group (remaining claims are skipped) and
  /// is rethrown to the joining caller.
  void claim_loop(TaskGroup& group, bool stolen, bool timed) {
    for (;;) {
      const std::size_t index =
          group.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= group.count) return;
      if (group.cancelled.load(std::memory_order_relaxed)) {
        complete_index(group);
        continue;
      }
      const Clock::time_point begin = timed ? Clock::now() : Clock::time_point{};
      try {
        (*group.task)(index);
      } catch (...) {
        bool stored = false;
        {
          const std::lock_guard<std::mutex> lock(group.mutex);
          if (!group.failure) {
            group.failure = std::current_exception();
            stored = true;
          }
        }
        group.cancelled.store(true, std::memory_order_relaxed);
        // Only the first failure reaches the group's join; count the ones
        // the protocol drops so they are visible in PoolStats instead of
        // vanishing.
        if (!stored) {
          suppressed_exceptions.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (timed) {
        busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - begin)
                              .count(),
                          std::memory_order_relaxed);
      }
      tasks_executed.fetch_add(1, std::memory_order_relaxed);
      if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
      complete_index(group);
    }
  }

  /// A worker's attempt to join a group popped from a deque.  Fails (and
  /// leaves the token to be re-enqueued) when the group's participant cap
  /// or its batch budget is saturated.
  bool try_participate(const std::shared_ptr<TaskGroup>& group, bool stolen) {
    if (group->drained()) return true;  // stale token: nothing left to do
    unsigned participants = group->participants.load(std::memory_order_relaxed);
    for (;;) {
      if (participants >= group->cap) return false;
      if (group->participants.compare_exchange_weak(
              participants, participants + 1, std::memory_order_relaxed)) {
        break;
      }
    }
    Budget& budget = *group->budget;
    unsigned active = budget.active.load(std::memory_order_relaxed);
    for (;;) {
      if (active >= budget.limit) {
        group->participants.fetch_sub(1, std::memory_order_relaxed);
        return false;
      }
      if (budget.active.compare_exchange_weak(active, active + 1,
                                              std::memory_order_relaxed)) {
        break;
      }
    }
    {
      ScopedAmbient ambient(group->budget);
      claim_loop(*group, stolen, /*timed=*/true);
    }
    budget.active.fetch_sub(1, std::memory_order_relaxed);
    group->participants.fetch_sub(1, std::memory_order_relaxed);
    // A freed slot may make a skipped (budget-saturated) token claimable.
    bump_epoch();
    return true;
  }

  /// Pushes `tokens` join invitations for `group`.  A worker pushes onto
  /// its own deque (LIFO pops favor its freshest child work); external
  /// callers inject into the shared queue.
  void push_tokens(const std::shared_ptr<TaskGroup>& group,
                   unsigned tokens, Worker* self) {
    if (tokens == 0) return;
    if (self != nullptr) {
      const std::lock_guard<std::mutex> lock(self->mutex);
      for (unsigned t = 0; t < tokens; ++t) self->deque.push_back(group);
    } else {
      const std::lock_guard<std::mutex> lock(inject_mutex);
      for (unsigned t = 0; t < tokens; ++t) injection.push_back(group);
    }
    queue_depth.fetch_add(tokens, std::memory_order_relaxed);
    bump_epoch();
  }

  /// One token popped from a queue: discard if stale, execute if a slot is
  /// free, otherwise re-inject and remember the group for this pass.
  /// Returns true if tasks were executed.
  bool handle_token(const std::shared_ptr<TaskGroup>& group, bool stolen,
                    std::vector<const TaskGroup*>& skipped) {
    queue_depth.fetch_sub(1, std::memory_order_relaxed);
    if (group->drained()) return false;
    if (std::find(skipped.begin(), skipped.end(), group.get()) !=
        skipped.end()) {
      reinject(group);
      return false;
    }
    if (try_participate(group, stolen)) return true;
    skipped.push_back(group.get());
    reinject(group);
    return false;
  }

  void reinject(const std::shared_ptr<TaskGroup>& group) {
    {
      const std::lock_guard<std::mutex> lock(inject_mutex);
      injection.push_back(group);
    }
    queue_depth.fetch_add(1, std::memory_order_relaxed);
  }

  /// One scan over every work source.  Returns true if anything ran.
  bool work_pass(Worker& self, std::vector<const TaskGroup*>& skipped) {
    skipped.clear();
    bool executed = false;

    // Posted one-shot jobs first: they are the service's submission
    // drainers and typically become long-running batch callers.
    for (;;) {
      std::function<void()> job;
      {
        const std::lock_guard<std::mutex> lock(inject_mutex);
        if (jobs.empty()) break;
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      const Clock::time_point begin = Clock::now();
      job();
      busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - begin)
                            .count(),
                        std::memory_order_relaxed);
      tasks_executed.fetch_add(1, std::memory_order_relaxed);
      executed = true;
    }

    // Own deque, newest first (depth-first into the freshest subtree).
    for (;;) {
      std::shared_ptr<TaskGroup> group;
      {
        const std::lock_guard<std::mutex> lock(self.mutex);
        if (self.deque.empty()) break;
        group = std::move(self.deque.back());
        self.deque.pop_back();
      }
      if (handle_token(group, /*stolen=*/false, skipped)) executed = true;
    }

    // Shared injection queue, oldest first.  Bounded pops: skipped tokens
    // cycle back to the tail, so one lap covers every distinct entry.
    std::size_t laps;
    {
      const std::lock_guard<std::mutex> lock(inject_mutex);
      laps = injection.size();
    }
    for (; laps > 0; --laps) {
      std::shared_ptr<TaskGroup> group;
      {
        const std::lock_guard<std::mutex> lock(inject_mutex);
        if (injection.empty()) break;
        group = std::move(injection.front());
        injection.pop_front();
      }
      if (handle_token(group, /*stolen=*/true, skipped)) executed = true;
    }

    // Steal oldest-first from the other workers (breadth-first: spread
    // top-level batches before descending into their children).  Victims
    // are snapshotted so no pool-wide lock is held while tasks execute
    // (workers are append-only with stable addresses).
    std::vector<Worker*> victims;
    {
      const std::lock_guard<std::mutex> spawn_lock(spawn_mutex);
      victims.reserve(workers.size());
      for (const auto& victim : workers) {
        if (victim.get() != &self) victims.push_back(victim.get());
      }
    }
    for (Worker* victim : victims) {
      std::shared_ptr<TaskGroup> group;
      {
        const std::lock_guard<std::mutex> lock(victim->mutex);
        if (victim->deque.empty()) continue;
        group = std::move(victim->deque.front());
        victim->deque.pop_front();
      }
      if (handle_token(group, /*stolen=*/true, skipped)) executed = true;
    }
    return executed;
  }

  void worker_main(Worker& self);  // defined after the thread_locals below
};

namespace {

/// The worker's own record, used so a caller inside a pool task pushes
/// child tokens onto its own deque.  Paired with the owning Impl so
/// private test pools and the global pool cannot cross wires.
thread_local ExecutorPool::Impl* tl_pool = nullptr;
thread_local ExecutorPool::Impl::Worker* tl_worker = nullptr;

}  // namespace

void ExecutorPool::Impl::worker_main(Worker& self) {
  tl_pool = this;
  tl_worker = &self;
  std::vector<const TaskGroup*> skipped;
  for (;;) {
    std::uint64_t seen;
    {
      const std::lock_guard<std::mutex> lock(park_mutex);
      if (stopping) return;
      seen = epoch;
    }
    if (work_pass(self, skipped)) continue;
    std::unique_lock<std::mutex> lock(park_mutex);
    if (stopping) return;
    if (epoch == seen) {
      parks.fetch_add(1, std::memory_order_relaxed);
      park_cv.wait(lock, [&] { return stopping || epoch != seen; });
      if (stopping) return;
    }
  }
}

ExecutorPool::ExecutorPool(unsigned budget)
    : impl_(std::make_unique<Impl>(budget)) {}

ExecutorPool::~ExecutorPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->park_mutex);
    impl_->stopping = true;
  }
  impl_->park_cv.notify_all();
  // No spawn_mutex here: holding it while joining would deadlock against a
  // worker's steal scan, and the no-run()/post()-in-flight contract means
  // the worker set cannot grow under us.
  for (auto& worker : impl_->workers) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

ExecutorPool& ExecutorPool::global() {
  static ExecutorPool pool(0);
  return pool;
}

unsigned ExecutorPool::budget() const { return impl_->resolved_budget(); }

void ExecutorPool::run(std::size_t count, const anneal::Task& task,
                       unsigned width) {
  if (count == 0) return;
  Impl& impl = *impl_;

  // Budget resolution: nested calls (ambient budget set) join their
  // batch's tree and may only narrow its cap; root calls open a new tree.
  Budget* const tree = tl_budget.get();
  const bool root = tree == nullptr;
  unsigned cap;
  if (root) {
    const unsigned pool_budget = impl.resolved_budget();
    cap = width == 0 ? pool_budget : std::min(width, pool_budget);
  } else {
    cap = width == 0 ? tree->limit : std::min(width, tree->limit);
  }
  if (cap == 0) cap = 1;

  // A nested fan that cannot gain a thread runs inline on the caller under
  // its tree's own budget: a single task, or a tree with no free slot
  // (every slot held, e.g. by the two restarts of a width-2 ladder, so a
  // dispatch would only wake workers that fail the budget and park again).
  // A serial tree is always full.  No group, no token, no wake-up.  The
  // tree is re-checked after every task: once a slot frees (another fan of
  // the tree drained), the remaining tasks are dispatched so a helper can
  // join them.  A width-1 narrowing of a wider tree is not this case: it
  // installs its own serial budget below.
  if (!root && (cap > 1 || tree->limit <= 1) &&
      (count == 1 || !has_free_slot(*tree))) {
    impl.inline_runs.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      if (count - i > 1 && cap > 1 && has_free_slot(*tree)) {
        const anneal::Task rest = [&task, i](std::size_t k) { task(i + k); };
        impl.fork_join(count - i, rest, cap, tl_budget, /*root=*/false);
        return;
      }
      impl.run_one(task, i);
    }
    return;
  }

  // Serial subtree: run inline on the caller with a width-1 ambient
  // budget, so descendants of a threads=1 batch stay serial too.  No
  // queues touched, nothing spawned.
  if (cap <= 1) {
    auto serial = std::make_shared<Budget>();
    serial->limit = 1;
    serial->active.store(1, std::memory_order_relaxed);
    ScopedAmbient ambient(std::move(serial));
    impl.inline_runs.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) impl.run_one(task, i);
    return;
  }

  std::shared_ptr<Budget> budget = tl_budget;
  if (root) {
    budget = std::make_shared<Budget>();
    budget->limit = cap;
  }

  // Root single task: execute inline, but under the full-width ambient
  // budget (a size-1 fan spawns nothing at THIS level; its children may
  // still fan out across the tree's remaining slots).
  if (count == 1) {
    budget->active.fetch_add(1, std::memory_order_relaxed);
    ScopedAmbient ambient(budget);
    impl.inline_runs.fetch_add(1, std::memory_order_relaxed);
    try {
      impl.run_one(task, 0);
    } catch (...) {
      budget->active.fetch_sub(1, std::memory_order_relaxed);
      impl.bump_epoch();
      throw;
    }
    budget->active.fetch_sub(1, std::memory_order_relaxed);
    impl.bump_epoch();
    return;
  }

  impl.fork_join(count, task, cap, std::move(budget), root);
}

void ExecutorPool::Impl::fork_join(std::size_t count,
                                   const anneal::Task& task, unsigned cap,
                                   std::shared_ptr<Budget> budget,
                                   bool root) {
  const unsigned group_cap =
      static_cast<unsigned>(std::min<std::size_t>(cap, count));
  auto group = std::make_shared<TaskGroup>();
  group->task = &task;
  group->count = count;
  group->cap = group_cap;
  group->budget = budget;
  group->remaining.store(count, std::memory_order_relaxed);
  group->participants.store(1, std::memory_order_relaxed);  // the caller

  // The caller holds one tree slot while it participates; helpers claim
  // the rest.  Root acquisition always succeeds (the tree is empty).
  if (root) budget->active.fetch_add(1, std::memory_order_relaxed);

  ensure_workers(resolved_budget() - 1);
  dispatches.fetch_add(1, std::memory_order_relaxed);
  push_tokens(group, group_cap - 1, tl_pool == this ? tl_worker : nullptr);

  {
    ScopedAmbient ambient(budget);
    claim_loop(*group, /*stolen=*/false, /*timed=*/false);
  }
  {
    std::unique_lock<std::mutex> lock(group->mutex);
    group->done_cv.wait(lock, [&] {
      return group->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  if (root) {
    budget->active.fetch_sub(1, std::memory_order_relaxed);
    bump_epoch();
  }
  if (group->failure) std::rethrow_exception(group->failure);
}

void ExecutorPool::post(std::function<void()> job) {
  Impl& impl = *impl_;
  // Posted work cannot run on the caller, so even a budget-1 pool keeps
  // one worker for it.
  impl.ensure_workers(std::max(1u, impl.resolved_budget() - 1));
  {
    const std::lock_guard<std::mutex> lock(impl.inject_mutex);
    impl.jobs.push_back(std::move(job));
  }
  impl.posted.fetch_add(1, std::memory_order_relaxed);
  impl.bump_epoch();
}

anneal::Executor ExecutorPool::executor(unsigned width) {
  return [this, width](std::size_t count, const anneal::Task& task) {
    run(count, task, width);
  };
}

PoolStats ExecutorPool::stats() const {
  const Impl& impl = *impl_;
  PoolStats out;
  out.budget = impl.resolved_budget();
  out.threads_spawned = impl.threads_spawned.load(std::memory_order_relaxed);
  out.workers_alive = impl.worker_count.load(std::memory_order_relaxed);
  out.dispatches = impl.dispatches.load(std::memory_order_relaxed);
  out.inline_runs = impl.inline_runs.load(std::memory_order_relaxed);
  out.tasks_executed = impl.tasks_executed.load(std::memory_order_relaxed);
  out.steals = impl.steals.load(std::memory_order_relaxed);
  out.parks = impl.parks.load(std::memory_order_relaxed);
  out.posted = impl.posted.load(std::memory_order_relaxed);
  out.suppressed_exceptions =
      impl.suppressed_exceptions.load(std::memory_order_relaxed);
  out.queue_depth = impl.queue_depth.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(impl.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  if (impl.started.load(std::memory_order_acquire)) {
    out.up_seconds = std::chrono::duration<double>(Clock::now() -
                                                   impl.start_time)
                         .count();
    if (out.workers_alive > 0 && out.up_seconds > 0.0) {
      out.utilization =
          out.busy_seconds / (out.up_seconds * out.workers_alive);
    }
  }
  return out;
}

}  // namespace hycim::runtime
