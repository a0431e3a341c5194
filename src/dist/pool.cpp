#include "dist/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "pcu/faults.hpp"
#include "pcu/trace.hpp"

namespace dist::pool {

namespace {

/// How long an idle thread spins before it sleeps: long enough to bridge
/// the serial work between two loops of one CG iteration (a dot product, a
/// message merge), short enough not to hold a core between operations.
constexpr auto kSpin = std::chrono::microseconds(200);

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin on `done` for up to kSpin; true when it held in time.
template <typename Pred>
bool spinUntil(Pred done) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (unsigned k = 1;; ++k) {
    if (done()) return true;
    cpuRelax();
    if (k % 64 == 0 && std::chrono::steady_clock::now() > until) return false;
  }
}

/// One loop: the tasks, split into one contiguous block per thread, the
/// caller's ambient context, and the lowest failing index with its
/// exception. A thread runs its own block first, so a part tends to stay
/// on the same thread (and its data in the same cache) from one loop to
/// the next, then helps with the other blocks.
struct Job {
  struct alignas(64) Block {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  Job(std::size_t n_, int threads_,
      const std::function<void(std::size_t)>& task_)
      : n(n_), threads(threads_), task(&task_),
        blocks(std::make_unique<Block[]>(static_cast<std::size_t>(threads_))) {
    const auto t = static_cast<std::size_t>(threads);
    for (std::size_t b = 0; b < t; ++b) {
      blocks[b].next.store(n * b / t, std::memory_order_relaxed);
      blocks[b].end = n * (b + 1) / t;
    }
  }

  std::size_t n;
  int threads;
  const std::function<void(std::size_t)>* task;
  std::unique_ptr<Block[]> blocks;
  std::shared_ptr<pcu::faults::Domain> domain;
  const char* tenant = nullptr;
  std::mutex error_mutex;
  std::size_t error_at = 0;
  std::exception_ptr error;

  /// Claim and run tasks, own block first, until none is left.
  void drain(int self) {
    for (int k = 0; k < threads; ++k) {
      Block& b = blocks[static_cast<std::size_t>((self + k) % threads)];
      for (;;) {
        const std::size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b.end) break;
        runOne(i);
      }
    }
  }

  void runOne(std::size_t i) {
    try {
      (*task)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error || i < error_at) {
        error = std::current_exception();
        error_at = i;
      }
    }
  }
};

class Pool {
 public:
  Pool()
      : size_(std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {
    threads_.reserve(static_cast<std::size_t>(size_ - 1));
    for (int id = 1; id < size_; ++id)
      threads_.emplace_back([this, id] { work(id); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_.store(true);
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int size() const { return size_; }

  /// Run `job` on the caller plus job.threads - 1 pool threads, or inline
  /// when the pool is serving another loop.
  void run(Job& job) {
    if (job.threads <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
      job.drain(0);
      return;
    }
    const int helpers = job.threads - 1;
    job_.store(&job, std::memory_order_relaxed);
    running_.store(helpers, std::memory_order_relaxed);
    // The job word names the generation and how many threads join it
    // (ids 1..helpers), so a thread that slept through a loop cannot
    // mistake a later loop for its own.
    const std::uint64_t word =
        (++generation_ << 16) | static_cast<std::uint64_t>(helpers);
    word_.store(word);
    if (sleepers_.load() > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      wake_.notify_all();
    }
    job.drain(0);
    const auto finished = [&] { return running_.load() == 0; };
    if (!spinUntil(finished)) {
      std::unique_lock<std::mutex> lock(mutex_);
      caller_waiting_.store(true);
      done_.wait(lock, finished);
      caller_waiting_.store(false);
    }
    busy_.store(false, std::memory_order_release);
  }

 private:
  void work(int id) {
    std::uint64_t seen = 0;
    for (;;) {
      const auto changed = [&] {
        return word_.load() != seen || stop_.load();
      };
      if (!spinUntil(changed)) {
        std::unique_lock<std::mutex> lock(mutex_);
        sleepers_.fetch_add(1);
        wake_.wait(lock, changed);
        sleepers_.fetch_sub(1);
      }
      if (stop_.load()) return;
      seen = word_.load();
      if (static_cast<std::uint64_t>(id) > (seen & 0xffff)) continue;
      Job& job = *job_.load(std::memory_order_relaxed);
      {
        pcu::faults::DomainScope domain(job.domain);
        pcu::trace::TenantScope tenant(job.tenant);
        job.drain(id);
      }
      if (running_.fetch_sub(1) == 1 && caller_waiting_.load()) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_one();
      }
    }
  }

  const int size_;
  std::vector<std::thread> threads_;
  std::atomic<bool> busy_{false};
  std::atomic<bool> stop_{false};
  std::uint64_t generation_ = 0;  ///< written by the pool's holder only
  std::atomic<std::uint64_t> word_{0};
  std::atomic<Job*> job_{nullptr};
  std::atomic<int> running_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> caller_waiting_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
};

Pool& instance() {
  static Pool pool;
  return pool;
}

}  // namespace

int size() { return instance().size(); }

void run(std::size_t n, int width,
         const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  Pool& pool = instance();
  const auto threads = std::min<std::size_t>(
      n, static_cast<std::size_t>(std::clamp(width, 1, pool.size())));
  Job job(n, static_cast<int>(threads), task);
  if (threads > 1) {
    job.domain = pcu::faults::currentHandle();
    job.tenant = pcu::trace::threadTenant();
  }
  pool.run(job);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace dist::pool
