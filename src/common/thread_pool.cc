#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace kgaq {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& GlobalPool() {
  static ThreadPool* pool = new ThreadPool(
      std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

bool TaskGroup::RunOne(State& state) {
  std::function<void()> task;
  {
    std::unique_lock<std::mutex> lock(state.mu);
    if (state.queue.empty()) return false;
    task = std::move(state.queue.front());
    state.queue.pop_front();
  }
  task();
  {
    std::unique_lock<std::mutex> lock(state.mu);
    if (--state.pending == 0) state.done.notify_all();
  }
  return true;
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->queue.push_back(std::move(task));
    ++state_->pending;
    // A helper blocked in Wait must see newly queued work, not just
    // completion.
    state_->done.notify_one();
  }
  // The runner holds the state alive: it may be dequeued by the pool after
  // a helping waiter already drained its task and destroyed the group.
  pool_.Submit([state = state_] { RunOne(*state); });
}

void TaskGroup::Wait() {
  State& state = *state_;
  for (;;) {
    // Help: drain this group's queued tasks on the waiting thread. Any
    // task popped here is one no pool worker has started, so running it
    // inline is a valid fork-join schedule — and the reason a pool task
    // waiting on its own nested group always makes progress.
    while (RunOne(state)) {
    }
    std::unique_lock<std::mutex> lock(state.mu);
    if (state.pending == 0) return;
    state.done.wait(lock, [&state] {
      return state.pending == 0 || !state.queue.empty();
    });
    if (state.pending == 0) return;
  }
}

void ParallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t)>& body) {
  TaskGroup group(pool);
  for (size_t i = 0; i < n; ++i) {
    group.Submit([i, &body] { body(i); });
  }
  group.Wait();
}

}  // namespace kgaq
