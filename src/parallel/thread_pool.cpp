#include "src/parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "src/obs/metrics.hpp"

namespace hipo::parallel {

namespace {

/// Pool utilization telemetry, one registry lookup for the process.
struct PoolCounters {
  obs::Counter& tasks;
  obs::Counter& parallel_fors;
  obs::Counter& help_steals;
  obs::Counter& idle_waits;
};

PoolCounters& pool_counters() {
  static PoolCounters c{
      obs::counter("pool.tasks"),
      obs::counter("pool.parallel_fors"),
      obs::counter("pool.help_steals"),
      obs::counter("pool.idle_waits"),
  };
  return c;
}

}  // namespace

// Shared state of one parallel_for call. Helper tasks enqueued on the pool
// hold a shared_ptr, so a helper that is only scheduled after the loop has
// completed (or after parallel_for returned) finds `next >= n` and exits
// without touching `fn`.
struct ThreadPool::ForLoop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr first_error;
  std::mutex error_mutex;
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  obs::gauge("pool.workers").set(static_cast<double>(workers));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::metrics_enabled()) [[unlikely]] pool_counters().tasks.bump();
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::drain(ForLoop& loop) {
  for (;;) {
    const std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= loop.n) return;
    try {
      (*loop.fn)(i);
    } catch (...) {
      std::lock_guard lock(loop.error_mutex);
      if (!loop.first_error) loop.first_error = std::current_exception();
    }
    if (loop.done.fetch_add(1, std::memory_order_acq_rel) + 1 == loop.n) {
      // Lock before notifying so a waiter between predicate check and sleep
      // cannot miss the wakeup.
      std::lock_guard lock(loop.mutex);
      loop.cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    pool_counters().parallel_fors.bump();
  }
  auto state = std::make_shared<ForLoop>();
  state->fn = &fn;
  state->n = n;

  // One helper per worker (capped by the iteration count; the caller is a
  // drainer too). Helpers are plain queue entries — no futures, so nothing
  // blocks on a task that a busy pool never schedules.
  const std::size_t helpers = std::min(threads_.size(), n - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t w = 0; w < helpers; ++w) {
      queue_.emplace_back([state] { drain(*state); });
    }
  }
  cv_.notify_all();

  // The caller claims iterations like any worker...
  drain(*state);
  // ...then, instead of sleeping while stragglers finish elsewhere, helps
  // execute queued work (e.g. inner loops spawned by those stragglers, or
  // unrelated submits). This is what makes nested calls deadlock-free.
  while (state->done.load(std::memory_order_acquire) < n) {
    if (try_run_one()) {
      if (obs::metrics_enabled()) [[unlikely]] {
        pool_counters().help_steals.bump();
      }
    } else {
      if (obs::metrics_enabled()) [[unlikely]] {
        pool_counters().idle_waits.bump();
      }
      std::unique_lock lock(state->mutex);
      state->cv.wait(lock, [&] {
        return state->done.load(std::memory_order_acquire) >= n;
      });
    }
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace hipo::parallel
