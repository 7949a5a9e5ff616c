#ifndef KGAQ_COMMON_THREAD_POOL_H_
#define KGAQ_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace kgaq {

/// A fixed-size worker pool.
///
/// The chain-query engine (§V of the paper) runs each second-stage sampling
/// "as a thread"; BranchSampler submits those samplings here. Tasks are
/// plain std::function<void()>; synchronization of results is the caller's
/// job (see TaskGroup / ParallelFor for the common fork-join case).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing. On a shared
  /// pool this includes tasks submitted by other callers; prefer TaskGroup
  /// for fork-join over the shared GlobalPool().
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The process-wide shared worker pool, sized to the hardware concurrency
/// and constructed on first use. Sharing one pool across every sampler and
/// session avoids the thread-spawn cost that a per-Build local pool paid on
/// each chain query, and keeps total threads bounded under concurrent
/// sessions. Never destroyed (workers would otherwise race static
/// destruction at exit).
ThreadPool& GlobalPool();

/// Fork-join scope over a (possibly shared) pool: counts only its own
/// tasks, so concurrent TaskGroups on GlobalPool() wait independently.
///
/// Wait() is work-helping: while the group still has queued (not yet
/// started) tasks, the waiting thread pops and runs them itself instead of
/// blocking. This makes nested fork-join deadlock-free by construction —
/// a pool task that creates a group and Waits drains that group's queue
/// inline even when every pool worker is busy, so ParallelFor needs no
/// serial fallback inside pool tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool);
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool and tracks it in this group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through THIS group has finished,
  /// helping to run the group's own queued tasks while it waits.
  void Wait();

 private:
  // Shared with the pool runners so a runner scheduled after the group's
  // destruction (its task was already drained by a helping waiter) still
  // has valid state to inspect.
  struct State {
    std::mutex mu;
    std::condition_variable done;
    std::deque<std::function<void()>> queue;
    size_t pending = 0;
  };

  // Pops and runs one queued task of `state`; returns false when the
  // queue is empty.
  static bool RunOne(State& state);

  ThreadPool& pool_;
  std::shared_ptr<State> state_;
};

/// Runs body(i) for i in [0, n) across the pool and joins. Safe on the
/// shared GlobalPool(): only its own iterations are awaited, and the
/// helping Wait makes it safe to call from inside a pool task (nested
/// fork-join drains its own iterations instead of deadlocking).
void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& body);

}  // namespace kgaq

#endif  // KGAQ_COMMON_THREAD_POOL_H_
