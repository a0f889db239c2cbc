#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace iqs {
namespace exec {

namespace {

thread_local bool tls_on_worker = false;

// Per-batch completion state, shared by the batch's task wrappers and the
// waiting submitter.
struct BatchState {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;
  std::exception_ptr error;
  size_t error_index = SIZE_MAX;  // lowest failing task index wins

  // Takes the task's exception by value, so a winning one is moved in
  // and no worker keeps a reference to what the caller rethrows.
  void Finish(size_t index, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (e != nullptr && index < error_index) {
      error = std::move(e);
      error_index = index;
    }
    if (--remaining == 0) cv.notify_all();
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  size_t n = threads == 0 ? 1 : threads;
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker; }

bool ThreadPool::NextTask(size_t index, std::function<void()>* out) {
  {
    WorkerQueue& own = *queues_[index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *out = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (size_t step = 1; step < queues_.size(); ++step) {
    WorkerQueue& victim = *queues_[(index + step) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *out = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      IQS_COUNTER_INC("exec.pool.steals");
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_on_worker = true;
  std::function<void()> task;
  while (true) {
    if (NextTask(index, &task)) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        --pending_;
      }
      task();
      task = nullptr;
      IQS_COUNTER_INC("exec.pool.tasks");
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) return;
    if (pending_ > 0) continue;  // submitted between scan and lock
    wake_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_) return;
  }
}

void ThreadPool::RunBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (OnWorkerThread()) {
    // Nested region on a worker: run inline, no new pool traffic.
    for (auto& t : tasks) t();
    return;
  }
  // Fires before any task is distributed, so a caller that catches this
  // can re-execute the whole batch serially without double-running work.
  if (Status fp = fault::Hit("exec.pool.batch"); !fp.ok()) {
    throw std::runtime_error(fp.message());
  }
  auto state = std::make_shared<BatchState>();
  state->remaining = tasks.size();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    for (size_t i = 0; i < tasks.size(); ++i) {
      auto wrapped = [state, i, fn = std::move(tasks[i])] {
        std::exception_ptr e;
        try {
          fn();
        } catch (...) {
          e = std::current_exception();
        }
        state->Finish(i, std::move(e));
      };
      WorkerQueue& q = *queues_[next_queue_];
      next_queue_ = (next_queue_ + 1) % queues_.size();
      std::lock_guard<std::mutex> qlock(q.mu);
      q.tasks.push_back(std::move(wrapped));
    }
    pending_ += tasks.size();
    IQS_GAUGE_SET("exec.pool.queue_depth", pending_);
  }
  wake_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] { return state->remaining == 0; });
    // Moved out under the lock: the last worker to drop `state` then
    // frees no exception the caller is reading.
    error = std::move(state->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::Post(std::function<void()> task) {
  auto wrapped = [fn = std::move(task)] {
    try {
      fn();
    } catch (...) {
      IQS_COUNTER_INC("exec.pool.post_errors");
    }
  };
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    WorkerQueue& q = *queues_[next_queue_];
    next_queue_ = (next_queue_ + 1) % queues_.size();
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      q.tasks.push_back(std::move(wrapped));
    }
    ++pending_;
    IQS_GAUGE_SET("exec.pool.queue_depth", pending_);
  }
  wake_cv_.notify_one();
}

size_t DefaultThreadCount() {
  if (const char* env = std::getenv("IQS_THREADS"); env != nullptr) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

namespace {

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;        // null until first use / serial
size_t g_pool_threads = 0;                 // 0 = not yet initialized

}  // namespace

std::shared_ptr<ThreadPool> GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool_threads == 0) {
    g_pool_threads = DefaultThreadCount();
    if (g_pool_threads > 1) {
      g_pool = std::make_shared<ThreadPool>(g_pool_threads);
    }
    IQS_GAUGE_SET("exec.pool.threads", g_pool_threads);
  }
  return g_pool;
}

size_t GlobalThreadCount() {
  GlobalPool();
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return g_pool_threads;
}

void SetGlobalThreadCount(size_t threads) {
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    old = std::move(g_pool);  // destroyed outside the lock
    g_pool_threads = threads == 0 ? 1 : threads;
    g_pool = g_pool_threads > 1 ? std::make_shared<ThreadPool>(g_pool_threads)
                                : nullptr;
    IQS_GAUGE_SET("exec.pool.threads", g_pool_threads);
  }
}

}  // namespace exec
}  // namespace iqs
