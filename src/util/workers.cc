#include "util/workers.h"

#include <sched.h>

#include <algorithm>
#include <system_error>

#include "util/check.h"

namespace bitpush::util {

int64_t AffinityCpus() {
  int64_t cpus = 0;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    cpus = CPU_COUNT(&allowed);
  }
#endif
  if (cpus <= 0) {
    cpus = static_cast<int64_t>(std::thread::hardware_concurrency());
  }
  return std::max<int64_t>(cpus, 1);
}

WorkerGroup::WorkerGroup(int64_t workers)
    : workers_(std::max<int64_t>(workers, 1)) {}

WorkerGroup::~WorkerGroup() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerGroup::Drain() {
  for (size_t i = next_.fetch_add(1); i < count_; i = next_.fetch_add(1)) {
    try {
      (*task_)(i);
    } catch (...) {
      failures_[i] = std::current_exception();
    }
  }
}

void WorkerGroup::Serve() {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      batch_ready_.wait(lock, [&] {
        return stop_ || (seats_ > 0 && batch_ != seen);
      });
      if (stop_) return;
      seen = batch_;
      --seats_;
      ++joined_;
    }
    Drain();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --joined_;
    }
    batch_done_.notify_one();
  }
}

void WorkerGroup::Run(size_t count, const std::function<void(size_t)>& task,
                      int64_t max_threads) {
  Start(count, task, max_threads);
  Finish();
}

void WorkerGroup::Start(size_t count,
                        const std::function<void(size_t)>& task,
                        int64_t max_threads) {
  BITPUSH_CHECK(task_ == nullptr);
  const size_t wanted = std::min(
      static_cast<size_t>(max_threads > 0 ? std::min(max_threads, workers_)
                                          : workers_),
      count);
  while (threads_.size() + 1 < wanted) {
    try {
      threads_.emplace_back([this] { Serve(); });
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones running share the batch
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    count_ = count;
    next_.store(0);
    failures_.assign(count, nullptr);
    seats_ = wanted > 1 ? wanted - 1 : 0;
    ++batch_;
  }
  if (wanted > 1) batch_ready_.notify_all();
}

void WorkerGroup::Finish() {
  if (task_ == nullptr) return;
  Drain();
  std::vector<std::exception_ptr> failures;
  {
    // Every task is taken: close the batch to late threads, and wait for
    // the ones that joined to finish theirs.
    std::unique_lock<std::mutex> lock(mutex_);
    seats_ = 0;
    batch_done_.wait(lock, [&] { return joined_ == 0; });
    task_ = nullptr;
    failures.swap(failures_);
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }
}

}  // namespace bitpush::util
