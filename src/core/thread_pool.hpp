#pragma once

/// \file thread_pool.hpp
/// Small shared worker pool with an allocation-free parallel_for, used to
/// shard host work across the A53 cluster's idle cores (§III-D runs the
/// quantization-sensitive first/last layers on the CPU while the fabric
/// handles the hidden layers; the other three cores were previously idle).
/// Clients: the packed GEMM drivers (gemm/gemm_packed.hpp), the fabric
/// simulator's bit-plane engine (fabric/bitserial.hpp: pack and pixel
/// blocks), and Rng::fill_normal's Box–Muller transforms (core/rng.hpp:
/// the synthetic camera's texture and weight initialization).
///
/// Design constraints, in order:
///  * zero heap allocations on the submit path — a steady-state frame must
///    not allocate, so jobs are stack-resident descriptors linked into an
///    intrusive list and chunk indices are claimed with a fetch_add;
///  * safe to call from several threads at once (the pipeline/serve worker
///    pools invoke GEMM concurrently; all their calls share this one pool,
///    so the process never oversubscribes the cores);
///  * the calling thread always participates, so `parallel_for` with an
///    empty pool degrades to a plain loop (TINCY_GEMM_THREADS=1).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace tincy::core {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the caller; the pool
  /// spawns `threads - 1` workers. 0 picks the default (see default_threads).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  int threads() const { return num_threads_; }

  /// Runs body(begin..end) sharded into `chunks` contiguous blocks; the
  /// caller executes blocks alongside the workers and returns only when
  /// every block is done. `body(lo, hi)` receives half-open index ranges.
  /// Allocation-free; re-entrant calls from a worker run inline.
  void parallel_for(int64_t begin, int64_t end, int64_t chunks,
                    void (*body)(int64_t lo, int64_t hi, void* ctx),
                    void* ctx);

  /// The process-wide pool shared by every GEMM call. Sized once, from
  /// TINCY_GEMM_THREADS when set, else min(hardware_concurrency, 4) — the
  /// paper's quad-A53 envelope — so pipeline workers' nested GEMM calls
  /// share one bounded set of threads.
  static ThreadPool& shared();

  /// Default size of shared(): TINCY_GEMM_THREADS clamped to [1, 64], or
  /// min(hardware_concurrency, 4).
  static int default_threads();

 private:
  /// One parallel_for invocation: lives on the caller's stack.
  struct Job {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t chunk = 0;  ///< ceil-divided block size
    void (*body)(int64_t, int64_t, void*) = nullptr;
    void* ctx = nullptr;
    std::atomic<int64_t> next_block{0};   ///< next block index to claim
    std::atomic<int64_t> in_flight{0};    ///< blocks claimed, not finished
    int64_t num_blocks = 0;
    Job* next = nullptr;  ///< intrusive pending-list link
  };

  /// Claims and runs blocks of `job` until none remain; returns when the
  /// claimed blocks are done (other threads may still be running theirs).
  static void run_blocks(Job& job);

  void worker_loop();

  int num_threads_ = 1;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: pending list non-empty
  std::condition_variable done_cv_;  ///< callers: a job fully drained
  Job* pending_ = nullptr;           ///< intrusive FIFO of submitted jobs
  Job* pending_tail_ = nullptr;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tincy::core
