#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/env.hpp"
#include "fault/failpoint.hpp"

namespace psi {

namespace {

/// EDF sort key: the absolute deadline. A task with no deadline gets an
/// *aged* key — enqueue time + the aging window — so sustained deadlined
/// load cannot starve it: newly arriving deadlined tasks carry keys that
/// advance with the clock and eventually pass the aged task's fixed key.
/// With aging disabled (window <= 0) no-deadline tasks sort after
/// everything. Under kFifo every task gets the same key so arrival order
/// (the seq tiebreak) decides alone.
Deadline::Clock::time_point SortKey(const ExecutorOptions& options,
                                    Deadline deadline,
                                    Deadline::Clock::time_point enqueued_at) {
  if (options.discipline == QueueDiscipline::kFifo) {
    return Deadline::Clock::time_point::max();
  }
  if (!deadline.enabled()) {
    if (options.no_deadline_aging <= std::chrono::nanoseconds(0)) {
      return Deadline::Clock::time_point::max();
    }
    return enqueued_at + options.no_deadline_aging;
  }
  return deadline.at();
}

}  // namespace

std::string_view ToString(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kRejected: return "rejected";
  }
  return "?";
}

std::string_view ToString(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kRejectNew: return "reject-new";
    case OverloadPolicy::kShedLatestDeadline: return "shed-latest-deadline";
  }
  return "?";
}

std::string_view ToString(QueueDiscipline d) {
  switch (d) {
    case QueueDiscipline::kFifo: return "fifo";
    case QueueDiscipline::kEdf: return "edf";
  }
  return "?";
}

ExecutorOptions ExecutorOptions::FromEnv() {
  ExecutorOptions o;
  const int64_t cap = PoolQueueCap();
  o.queue_capacity =
      cap > 0 ? static_cast<size_t>(cap) : ExecutorOptions::kUnboundedQueue;
  o.overload_policy = PoolOverloadPolicyName() == "shed"
                          ? OverloadPolicy::kShedLatestDeadline
                          : OverloadPolicy::kRejectNew;
  const int64_t aging_ms = PoolAgingMillis();
  o.no_deadline_aging = aging_ms > 0 ? std::chrono::milliseconds(aging_ms)
                                     : std::chrono::nanoseconds(0);
  return o;
}

Executor::Executor(size_t num_threads)
    : Executor([num_threads] {
        // The convenience constructor honours the environment's admission
        // knobs too, so PSI_POOL_QUEUE_CAP / PSI_POOL_OVERLOAD govern every
        // default-configured pool (benches, examples), not just Shared().
        ExecutorOptions o = ExecutorOptions::FromEnv();
        o.num_threads = num_threads;
        return o;
      }()) {}

Executor::Executor(const ExecutorOptions& options) : options_(options) {
  size_t num_threads = options_.num_threads;
  if (num_threads == 0) {
    num_threads = static_cast<size_t>(std::max<int64_t>(1, PoolThreads()));
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Admission Executor::Submit(std::function<void()> task) {
  return Enqueue(nullptr, Deadline(), [task = std::move(task)](TaskStart s) {
    if (s == TaskStart::kRun) task();
  });
}

std::vector<Executor::QueuedTask> Executor::PurgeCancelledLocked() {
  std::vector<QueuedTask> purged;
  auto keep = queue_.begin();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->group != nullptr && it->group->stop().stop_requested()) {
      purged.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  queue_.erase(keep, queue_.end());
  return purged;
}

Admission Executor::Enqueue(const TaskGroup* group, Deadline deadline,
                            std::function<void(TaskStart)> fn) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Failpoint: a spurious admission rejection, indistinguishable to the
  // caller from a genuinely full queue — the closure never runs and the
  // caller's overload fallback (inline run, sequential race, typed
  // status) takes over.
  if (PSI_FAULT_POINT("exec.admit") == FaultKind::kReject) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kRejected;
  }
  QueuedTask task;
  task.group = group;
  task.fn = std::move(fn);
  task.enqueued_at = Deadline::Clock::now();
  task.deadline_key = SortKey(options_, deadline, task.enqueued_at);

  // Tasks displaced by the admission decision, completed outside the lock:
  // cancelled-group purges go through the normal fast-cancel dequeue path,
  // the shed victim (if any) through its kShed envelope.
  std::vector<QueuedTask> purged;
  QueuedTask shed_victim;
  bool have_shed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    task.seq = next_seq_++;
    if (queue_.size() >= options_.queue_capacity) {
      // Cancelled-group tasks are dead weight: purge them first so they
      // never count against the capacity a live task is asking for.
      purged = PurgeCancelledLocked();
      if (queue_.size() >= options_.queue_capacity) {
        const bool can_shed =
            options_.overload_policy == OverloadPolicy::kShedLatestDeadline &&
            !queue_.empty() && queue_.back().deadline_key > task.deadline_key;
        if (!can_shed) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          lock.unlock();
          for (auto& p : purged) RunNow(std::move(p));
          return Admission::kRejected;
        }
        shed_victim = std::move(queue_.back());
        queue_.pop_back();
        have_shed = true;
      }
    }
    // Sorted insert on (deadline_key, seq): upper_bound keeps arrival
    // order among equal keys, which is both the FIFO discipline and the
    // EDF tiebreak.
    auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), task,
        [](const QueuedTask& a, const QueuedTask& b) {
          return a.deadline_key != b.deadline_key
                     ? a.deadline_key < b.deadline_key
                     : a.seq < b.seq;
        });
    queue_.insert(pos, std::move(task));
    peak_queue_ = std::max<uint64_t>(peak_queue_, queue_.size());
  }
  cv_.notify_one();
  for (auto& p : purged) RunNow(std::move(p));
  if (have_shed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    RecordQueueWait(shed_victim);
    shed_victim.fn(TaskStart::kShed);
  }
  return Admission::kAdmitted;
}

void Executor::RecordQueueWait(const QueuedTask& task) {
  const auto wait = Deadline::Clock::now() - task.enqueued_at;
  const double ms = std::chrono::duration<double, std::milli>(wait).count();
  wait_hist_[PoolGauges::WaitBucketFor(ms)].fetch_add(
      1, std::memory_order_relaxed);
  wait_total_ns_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count()),
      std::memory_order_relaxed);
  wait_count_.fetch_add(1, std::memory_order_relaxed);
}

void Executor::RunNow(QueuedTask task) {
  RecordQueueWait(task);
  // Failpoint: shed the task at dequeue, as if it had been evicted from a
  // full queue — the closure observes TaskStart::kShed and records a
  // cancelled outcome, exactly the kShedLatestDeadline contract.
  if (PSI_FAULT_POINT("exec.dequeue") == FaultKind::kShed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    task.fn(TaskStart::kShed);
    return;
  }
  // `executed_` is counted before running so the total is already visible
  // to whoever the finishing task unblocks (TaskGroup::Wait returns from
  // inside the task's completion hook). `busy_` covers helping waiters
  // too, so it can transiently exceed the worker count.
  executed_.fetch_add(1, std::memory_order_relaxed);
  busy_.fetch_add(1, std::memory_order_relaxed);
  task.fn(TaskStart::kRun);
  busy_.fetch_sub(1, std::memory_order_relaxed);
}

bool Executor::TryRunOne() {
  QueuedTask task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  RunNow(std::move(task));
  return true;
}

bool Executor::TryRunOneFromGroup(const TaskGroup* group) {
  QueuedTask task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // First hit is the group's earliest-deadline task (queue is sorted).
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [group](const QueuedTask& t) {
                             return t.group == group;
                           });
    if (it == queue_.end()) return false;
    task = std::move(*it);
    queue_.erase(it);
  }
  RunNow(std::move(task));
  return true;
}

void Executor::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain the whole queue before honouring shutdown, so every
      // admitted task runs and no TaskGroup is left waiting forever.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RunNow(std::move(task));
  }
}

PoolGauges Executor::gauges() const {
  PoolGauges g;
  g.num_threads = workers_.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    g.queue_depth = queue_.size();
    g.peak_queue_depth = static_cast<size_t>(peak_queue_);
  }
  g.busy_workers =
      static_cast<size_t>(busy_.load(std::memory_order_relaxed));
  g.tasks_submitted = submitted_.load(std::memory_order_relaxed);
  g.tasks_executed = executed_.load(std::memory_order_relaxed);
  g.tasks_discarded = discarded_.load(std::memory_order_relaxed);
  g.tasks_rejected = rejected_.load(std::memory_order_relaxed);
  g.tasks_shed = shed_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < PoolGauges::kWaitBuckets; ++i) {
    g.queue_wait_hist[i] = wait_hist_[i].load(std::memory_order_relaxed);
  }
  g.queue_wait_count = wait_count_.load(std::memory_order_relaxed);
  g.queue_wait_total_ms =
      static_cast<double>(wait_total_ns_.load(std::memory_order_relaxed)) /
      1e6;
  return g;
}

Executor& Executor::Shared() {
  // Leaked on purpose: worker threads may still be draining tasks during
  // static destruction, and the OS reclaims everything at exit anyway.
  static Executor* shared = new Executor(ExecutorOptions::FromEnv());
  return *shared;
}

TaskGroup::TaskGroup(Executor& executor, Deadline deadline)
    : executor_(&executor), deadline_(deadline) {}

TaskGroup::~TaskGroup() {
  RequestStop();
  Wait();
}

Admission TaskGroup::Spawn(std::function<void(TaskStart)> fn) {
  return Spawn(std::move(fn), Deadline());
}

Admission TaskGroup::Spawn(std::function<void(TaskStart)> fn,
                           Deadline task_deadline) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  const Admission admission = executor_->Enqueue(
      this, task_deadline.enabled() ? task_deadline : deadline_,
      [this, fn = std::move(fn)](TaskStart start) {
        if (start == TaskStart::kRun && stop_.stop_requested()) {
          // Fast-cancel: the group was cancelled while this task was
          // queued; only this envelope runs.
          start = TaskStart::kCancelled;
          executor_->NoteDiscarded();
        }
        // Failpoint: the worker "crashes" before the body. Surfacing the
        // task as kShed (rather than actually unwinding) keeps the
        // contract every spawner already honours — record a cancelled
        // outcome, re-run displaced work inline — so no record is lost.
        if (start == TaskStart::kRun &&
            PSI_FAULT_POINT("exec.run") == FaultKind::kThrow) {
          start = TaskStart::kShed;
        }
        try {
          fn(start);
        } catch (...) {
          // Last-resort isolation: a member body must not tear down the
          // pool worker (or a helping waiter), and the group must still
          // complete. Layers below (racer, FTV filter) catch and record
          // their own failures; anything reaching here is swallowed after
          // being counted as a crash.
          FaultStats::Instance().NoteCrash();
        }
        FinishOne();
      });
  if (admission == Admission::kRejected) {
    // Never enqueued: the envelope will not run, so the optimistic
    // pending_ increment is rolled back here.
    FinishOne();
  }
  return admission;
}

Admission TaskGroup::Spawn(std::function<void(bool)> fn) {
  return Spawn([fn = std::move(fn)](TaskStart start) {
    fn(start != TaskStart::kRun);
  });
}

void TaskGroup::FinishOne() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (--pending_ == 0) cv_.notify_all();
}

size_t TaskGroup::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

void TaskGroup::RequestStop() {
  // Failpoint (kDelay): stretches the window between a winner finishing
  // and the losers observing cancellation — the timing the chaos harness
  // perturbs to shake out teardown races. The sleep happens inside
  // Evaluate; the stop itself is unconditional.
  (void)PSI_FAULT_POINT("group.cancel");
  stop_.RequestStop();
}

void TaskGroup::Wait() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (pending_ == 0) return;
    }
    // Help: run this group's queued work instead of sleeping — a blocked
    // waiter is still a worker for its own tasks, which is what makes
    // nested groups deadlock-free. Restricting the help to our own group
    // keeps recursion bounded by the nesting depth and never adopts
    // another client's (possibly long-running) task.
    if (executor_->TryRunOneFromGroup(this)) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    // The timeout is a belt-and-braces re-poll of the help path; group
    // completions notify the condition variable directly.
    cv_.wait_for(lock, std::chrono::milliseconds(10),
                 [this] { return pending_ == 0; });
  }
}

bool TaskGroup::WaitUntil(Deadline::Clock::time_point until) {
  // Deliberately does NOT help-run group members the way Wait() does: the
  // whole point of a bounded wait is that the caller gets control back at
  // `until` even when a member body is wedged. Helping would let the
  // caller pick up that wedged body and run it inline, blocking for
  // arbitrarily long past the bound. Members still queued when the bound
  // expires are no loss — the watchdog path that follows a false return
  // stops the group, and the final helping Wait() fast-cancels them.
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_until(lock, until, [this] { return pending_ == 0; });
}

}  // namespace psi
