// Worker threads for the library's parallel phases: a tick's shard tasks
// (federated/shard/runner.cc) and the stage and apply steps of a
// collection round (federated/round_stages.h) run through this one
// helper.

#ifndef BITPUSH_UTIL_WORKERS_H_
#define BITPUSH_UTIL_WORKERS_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bitpush::util {

// CPUs in the process's affinity mask, so that `taskset` bounds it; the
// hardware's thread count where the mask cannot be read. At least 1.
int64_t AffinityCpus();

// Up to `workers` threads, the caller included, that run batches of tasks.
// The group starts its threads at the first batch that has a task for
// them, and they wait between batches, so that a caller with many small
// batches pays for the thread starts once. Threads take a batch's tasks
// one at a time until none is left, and the caller takes tasks too, once
// it finishes the batch: a thread the system does not run in time leaves
// its share to the others, and the caller waits only for the tasks that a
// thread has taken. With a budget of 1, or with one task, the caller runs
// every task itself and no thread starts. If a thread cannot be started,
// the threads that could run the rest. The destructor joins every thread,
// each once it has run the tasks it took.
class WorkerGroup {
 public:
  explicit WorkerGroup(int64_t workers);
  ~WorkerGroup();
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  int64_t workers() const { return workers_; }

  // Runs task(i) for every i in [0, count), spread over at most
  // `max_threads` of the group's threads (the caller included; all of them
  // when 0), and returns once every task has finished. An exception a task
  // throws is rethrown here, the lowest task's first. Not reentrant: a
  // task must not call Run on its own group. Start and then Finish.
  void Run(size_t count, const std::function<void(size_t)>& task,
           int64_t max_threads = 0);

  // The two halves of Run, so that the caller can work while the group's
  // threads take the batch's tasks. Start opens the batch and returns at
  // once; `task` must live until Finish, and no batch may be open. Finish
  // runs the tasks no thread has taken yet on the caller, waits for the
  // ones taken, closes the batch and rethrows as Run does; with no batch
  // open it returns at once.
  void Start(size_t count, const std::function<void(size_t)>& task,
             int64_t max_threads = 0);
  void Finish();
  // Whether a batch is open: started and not yet finished.
  bool open() const { return task_ != nullptr; }

 private:
  // Runs tasks of the current batch until none is left.
  void Drain();
  // A started thread's loop: joins each batch that still has tasks, and
  // waits for the next.
  void Serve();

  const int64_t workers_;
  std::mutex mutex_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  // Guarded by mutex_: the batch number, how many more threads it takes,
  // the threads that joined it and have not left, and the stop flag.
  uint64_t batch_ = 0;
  size_t seats_ = 0;
  size_t joined_ = 0;
  bool stop_ = false;
  // The batch: written under mutex_ before it opens, read by the threads
  // that joined it (task_ is also the caller's open flag); next_ hands out
  // its tasks, and failures_[i] is written by the thread that took task i.
  const std::function<void(size_t)>* task_ = nullptr;
  size_t count_ = 0;
  std::atomic<size_t> next_{0};
  std::vector<std::exception_ptr> failures_;
  // Last, after everything the threads use.
  std::vector<std::thread> threads_;
};

}  // namespace bitpush::util

#endif  // BITPUSH_UTIL_WORKERS_H_
