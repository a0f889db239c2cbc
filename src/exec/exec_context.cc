#include "exec/exec_context.h"

#include <algorithm>

#include "fault/failpoint.h"
#include "obs/metrics.h"

namespace iqs {
namespace exec {

namespace {

thread_local ExecContext* g_current_context = nullptr;

// Hits per checkpoint name, for the sweep test's coverage assertion.
// Names come from the static manifest below plus any ad-hoc callers;
// lookup takes a mutex but only at block/batch granularity.
struct CheckpointCounters {
  std::mutex mu;
  std::map<std::string, std::atomic<uint64_t>> hits;

  static CheckpointCounters& Global() {
    static CheckpointCounters* counters = new CheckpointCounters();
    return *counters;
  }

  std::atomic<uint64_t>* Get(const char* name) {
    std::lock_guard<std::mutex> lock(mu);
    return &hits[name];
  }
};

}  // namespace

GovernedMemoryPool& GovernedMemoryPool::Global() {
  static GovernedMemoryPool* pool = new GovernedMemoryPool();
  return *pool;
}

ExecContext::ExecContext(Config config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()) {
  if (config_.deadline.has_value()) {
    deadline_at_ = start_ + *config_.deadline;
  }
}

ExecContext::~ExecContext() {
  // The arena drains when the query dies, successful or not — this is
  // the "no leaked bytes" half of the governance contract.
  GovernedMemoryPool::Global().Release(
      used_.load(std::memory_order_relaxed));
}

void ExecContext::Cancel(StatusCode code, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(reason_mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;  // first wins
    cancel_reason_ = reason;
    cancel_code_.store(static_cast<int>(code), std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }
  IQS_COUNTER_INC("gov.cancelled");
  obs::GlobalMetrics()
      .GetCounter(std::string("gov.cancelled.") + StatusCodeName(code))
      ->Increment();
}

Status ExecContext::Check(const char* checkpoint) {
  if (cancelled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(reason_mu_);
    return Status(static_cast<StatusCode>(
                      cancel_code_.load(std::memory_order_relaxed)),
                  cancel_reason_);
  }
  if (config_.deadline.has_value() &&
      std::chrono::steady_clock::now() > deadline_at_) {
    Cancel(StatusCode::kDeadlineExceeded,
           "query deadline of " + std::to_string(config_.deadline->count()) +
               "ms exceeded at checkpoint '" + checkpoint + "'");
    return Check(checkpoint);
  }
  if (config_.max_memory_bytes != 0 &&
      used_.load(std::memory_order_relaxed) > config_.max_memory_bytes) {
    Cancel(StatusCode::kResourceExhausted,
           "query memory budget of " +
               std::to_string(config_.max_memory_bytes / 1024) +
               "kb exceeded at checkpoint '" + checkpoint + "'");
    return Check(checkpoint);
  }
  return Status::Ok();
}

Status ExecContext::Charge(const char* checkpoint, uint64_t bytes) {
  uint64_t used = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  GovernedMemoryPool::Global().Charge(bytes);
  uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (used > peak &&
         !peak_.compare_exchange_weak(peak, used,
                                      std::memory_order_relaxed)) {
  }
  if (config_.max_memory_bytes != 0 && used > config_.max_memory_bytes) {
    Cancel(StatusCode::kResourceExhausted,
           "query memory budget of " +
               std::to_string(config_.max_memory_bytes / 1024) +
               "kb exceeded at checkpoint '" + checkpoint + "' (" +
               std::to_string(used / 1024) + "kb charged)");
    return Check(checkpoint);
  }
  return Status::Ok();
}

int64_t ExecContext::elapsed_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

int64_t ExecContext::deadline_ms() const {
  return config_.deadline.has_value() ? config_.deadline->count() : -1;
}

bool ExecContext::past_deadline() const {
  return config_.deadline.has_value() &&
         std::chrono::steady_clock::now() > deadline_at_;
}

ExecContext* ExecContext::Current() { return g_current_context; }

ScopedExecContext::ScopedExecContext(ExecContext* context)
    : previous_(g_current_context) {
  g_current_context = context;
}

ScopedExecContext::~ScopedExecContext() { g_current_context = previous_; }

const std::vector<CheckpointInfo>& CheckpointManifest() {
  // Placement rule (DESIGN.md §15): one checkpoint per unit of work that
  // is O(block) — a 1024-row block, a candidate scheme, a rule — never
  // per row. Every entry here must be driven by the governance sweep.
  static const std::vector<CheckpointInfo>* manifest =
      new std::vector<CheckpointInfo>{
          {"sql.scan", "SQL entry scan, and residual filter per 1024 rows"},
          {"sql.join", "SQL join / cross-product output, per probe batch"},
          {"sql.aggregate", "SQL aggregate, per 1024 rows and 256 groups"},
          {"quel.scan", "QUEL retrieve pipeline, per statement stage"},
          {"columnar.scan", "columnar batch scan, per 1024-row block"},
          {"columnar.transpose", "row->column transpose, per column"},
          {"ils.induce", "rule induction, per candidate scheme"},
          {"ils.segment", "sort-and-segment induction, per chunk"},
          {"infer.match", "inference rule matching, per rule"},
          {"infer.fire", "inference chaining, per derivation pass"},
      };
  return *manifest;
}

uint64_t CheckpointHits(const std::string& name) {
  CheckpointCounters& counters = CheckpointCounters::Global();
  std::lock_guard<std::mutex> lock(counters.mu);
  auto it = counters.hits.find(name);
  return it == counters.hits.end()
             ? 0
             : it->second.load(std::memory_order_relaxed);
}

Status Checkpoint(const char* name) {
  // Cached per unique name pointer — each IQS_GOV_CHECKPOINT site passes
  // a string literal, so the map lookup is paid once per site, not per
  // block. The two governance failpoints are resolved once globally.
  static fault::Site* slow_site =
      fault::FailpointRegistry::Global().GetSite("exec.slow_block");
  static fault::Site* alloc_site =
      fault::FailpointRegistry::Global().GetSite("exec.alloc_spike");
  thread_local std::map<const char*, std::atomic<uint64_t>*> cache;
  std::atomic<uint64_t>*& counter = cache[name];
  if (counter == nullptr) counter = CheckpointCounters::Global().Get(name);
  counter->fetch_add(1, std::memory_order_relaxed);

  if (slow_site->armed()) {
    fault::CheckpointFault f = slow_site->HitForCheckpoint(name);
    if (f.sleep_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(f.sleep_ms));
    }
  }
  ExecContext* context = ExecContext::Current();
  if (alloc_site->armed()) {
    fault::CheckpointFault f = alloc_site->HitForCheckpoint(name);
    if (f.alloc_kb != 0 && context != nullptr) {
      IQS_RETURN_IF_ERROR(context->Charge(name, f.alloc_kb * 1024));
    }
  }
  if (context == nullptr) return Status::Ok();
  return context->Check(name);
}

Status ChargeRows(const char* checkpoint, size_t rows, size_t width) {
  ExecContext* context = ExecContext::Current();
  if (context != nullptr && rows > 0) {
    IQS_RETURN_IF_ERROR(
        context->Charge(checkpoint, rows * ApproxRowBytes(width)));
  }
  return Checkpoint(checkpoint);
}

GovernanceRegistry& GovernanceRegistry::Global() {
  static GovernanceRegistry* registry = new GovernanceRegistry();
  return *registry;
}

void GovernanceRegistry::AddSession(uint64_t session_id,
                                    const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_[session_id] =
      SessionEntry{peer, std::chrono::steady_clock::now(), 0};
}

void GovernanceRegistry::NoteRequest(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) ++it->second.requests;
}

void GovernanceRegistry::RemoveSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session_id);
}

uint64_t GovernanceRegistry::AddQuery(std::shared_ptr<ExecContext> context) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t handle = next_handle_++;
  queries_[handle] = QueryEntry{std::move(context)};
  return handle;
}

void GovernanceRegistry::RemoveQuery(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  queries_.erase(handle);
}

bool GovernanceRegistry::CancelQuery(uint64_t session_id,
                                     const std::string& request_id,
                                     StatusCode code,
                                     const std::string& reason) {
  std::shared_ptr<ExecContext> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [handle, entry] : queries_) {
      if (entry.context->session_id() == session_id &&
          entry.context->request_id() == request_id) {
        target = entry.context;
        break;
      }
    }
  }
  if (target == nullptr) return false;
  target->Cancel(code, reason);
  return true;
}

size_t GovernanceRegistry::CancelSession(uint64_t session_id,
                                         const std::string& reason) {
  std::vector<std::shared_ptr<ExecContext>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [handle, entry] : queries_) {
      if (entry.context->session_id() == session_id) {
        targets.push_back(entry.context);
      }
    }
  }
  for (auto& context : targets) {
    context->Cancel(StatusCode::kCancelled, reason);
  }
  return targets.size();
}

size_t GovernanceRegistry::CancelOverdue() {
  std::vector<std::shared_ptr<ExecContext>> overdue;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [handle, entry] : queries_) {
      if (entry.context->past_deadline() && !entry.context->cancelled()) {
        overdue.push_back(entry.context);
      }
    }
  }
  size_t cancelled = 0;
  for (auto& context : overdue) {
    if (context->cancelled()) continue;
    context->Cancel(
        StatusCode::kDeadlineExceeded,
        "query deadline of " + std::to_string(context->deadline_ms()) +
            "ms exceeded (watchdog)");
    ++cancelled;
  }
  if (cancelled != 0) {
    obs::GlobalMetrics()
        .GetCounter("gov.watchdog.cancelled")
        ->Increment(cancelled);
  }
  return cancelled;
}

void GovernanceRegistry::StartWatchdog(std::chrono::milliseconds period) {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  if (watchdog_.joinable()) return;
  watchdog_stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread([this, period] {
    while (!watchdog_stop_.load(std::memory_order_relaxed)) {
      CancelOverdue();
      std::this_thread::sleep_for(period);
    }
  });
}

void GovernanceRegistry::StopWatchdog() {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  if (!watchdog_.joinable()) return;
  watchdog_stop_.store(true, std::memory_order_relaxed);
  watchdog_.join();
}

std::vector<SessionSnapshot> GovernanceRegistry::Sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  std::vector<SessionSnapshot> out;
  out.reserve(sessions_.size() + queries_.size());
  for (const auto& [id, entry] : sessions_) {
    SessionSnapshot row;
    row.session_id = id;
    row.peer = entry.peer;
    row.age_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - entry.start)
                     .count();
    row.requests = entry.requests;
    out.push_back(std::move(row));
  }
  for (const auto& [handle, entry] : queries_) {
    const ExecContext& context = *entry.context;
    SessionSnapshot* row = nullptr;
    for (SessionSnapshot& existing : out) {
      if (existing.session_id == context.session_id()) {
        row = &existing;
        break;
      }
    }
    if (row == nullptr) {
      // Shell/test queries (session 0) and queries whose session has
      // already left still show up as their own row.
      out.emplace_back();
      row = &out.back();
      row->session_id = context.session_id();
    }
    row->active = true;
    row->request_id = context.request_id();
    row->statement = context.statement();
    row->elapsed_ms = context.elapsed_ms();
    row->deadline_ms = context.deadline_ms();
    row->mem_used_kb = context.used_bytes() / 1024;
    row->mem_peak_kb = context.peak_bytes() / 1024;
  }
  return out;
}

size_t GovernanceRegistry::live_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

}  // namespace exec
}  // namespace iqs
