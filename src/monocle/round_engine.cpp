#include "monocle/round_engine.hpp"

#include <limits>

namespace monocle {

namespace {
thread_local std::size_t tls_worker = std::numeric_limits<std::size_t>::max();
}  // namespace

std::size_t RoundEngine::current_worker() { return tls_worker; }

RoundEngine::RoundEngine(std::size_t workers) {
  const std::size_t n = workers == 0 ? 1 : workers;
  tasks_.assign(n, nullptr);
  if (n == 1) return;  // the submitting thread is the worker
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

RoundEngine::~RoundEngine() { stop(); }

bool RoundEngine::running() const {
  std::lock_guard lock(mu_);
  return !stop_;
}

void RoundEngine::set_round_job(
    std::function<std::size_t(std::size_t)> job) {
  std::lock_guard ops(ops_mu_);
  std::lock_guard lock(mu_);
  round_job_ = std::move(job);
}

std::size_t RoundEngine::run_round() {
  std::lock_guard ops(ops_mu_);
  std::unique_lock lock(mu_);
  if (stop_ || !round_job_) return 0;
  if (threads_.empty()) {
    lock.unlock();  // ops_mu_ keeps round_job_ and stop_ as they are
    return round_job_(0);
  }
  round_sum_ = 0;
  outstanding_ += threads_.size();
  ++round_seq_;
  cv_workers_.notify_all();
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  return round_sum_;
}

bool RoundEngine::run_on(std::size_t worker,
                         const std::function<void()>& task) {
  std::lock_guard ops(ops_mu_);
  std::unique_lock lock(mu_);
  if (stop_) return false;
  if (worker >= tasks_.size() || !task) return true;
  if (threads_.empty()) {
    lock.unlock();
    task();
    return true;
  }
  tasks_[worker] = &task;
  ++outstanding_;
  cv_workers_.notify_all();
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  return true;
}

void RoundEngine::quiesce() {
  // Submissions are serialized and each blocks until its work finished, so
  // by the time this acquires ops_mu_ there is nothing outstanding; the
  // mutex handshake alone publishes every worker's prior writes.
  std::lock_guard ops(ops_mu_);
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
}

void RoundEngine::stop() {
  std::lock_guard ops(ops_mu_);
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
    cv_workers_.notify_all();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void RoundEngine::worker_loop(std::size_t index) {
  tls_worker = index;
  std::unique_lock lock(mu_);
  std::uint64_t seen_seq = 0;
  for (;;) {
    cv_workers_.wait(lock, [&] {
      return stop_ || tasks_[index] != nullptr || round_seq_ != seen_seq;
    });
    if (tasks_[index] != nullptr) {
      const std::function<void()>* task = tasks_[index];
      lock.unlock();
      (*task)();
      lock.lock();
      tasks_[index] = nullptr;
      --outstanding_;
      cv_done_.notify_all();
      continue;  // re-check: a round may have been signaled meanwhile
    }
    if (round_seq_ != seen_seq) {
      seen_seq = round_seq_;
      lock.unlock();
      const std::size_t contribution = round_job_(index);
      lock.lock();
      round_sum_ += contribution;
      --outstanding_;
      cv_done_.notify_all();
      continue;
    }
    break;  // stop_ set and no pending work for this worker
  }
}

}  // namespace monocle
