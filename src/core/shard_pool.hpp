#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

/// \file shard_pool.hpp
/// The fork-join pool of core/ (private to core/): the sparse kernel fans a
/// round's heavy phases out over it, and the audit its round chunks.

namespace dualrad {

/// Persistent pool: `run(task)` executes task(w) for every shard index w in
/// [0, shards), shard 0 on the calling thread, and returns once all shards
/// finished. Workers sleep on a futex (C++20 atomic wait) between
/// dispatches, so idle phases (polling, the adversary callback) cost
/// nothing. Exceptions thrown inside a shard are captured and rethrown on
/// the calling thread, lowest shard index first.
class ShardPool {
 public:
  explicit ShardPool(unsigned shards)
      : shards_(shards), errors_(shards) {
    threads_.reserve(shards_ - 1);
    try {
      for (unsigned w = 1; w < shards_; ++w) {
        threads_.emplace_back([this, w] { worker_loop(w); });
      }
    } catch (...) {
      // A thread that failed to start leaves the destructor unrun: join the
      // workers already started before the exception leaves.
      stop_workers();
      throw;
    }
  }

  ~ShardPool() { stop_workers(); }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  template <class F>
  void run(F&& task) {
    using Fn = std::remove_reference_t<F>;
    fn_ = [](void* ctx, unsigned w) { (*static_cast<Fn*>(ctx))(w); };
    ctx_ = const_cast<void*>(static_cast<const void*>(std::addressof(task)));
    dispatch();
  }

 private:
  void stop_workers() {
    stop_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void dispatch() {
    for (auto& e : errors_) e = nullptr;
    pending_.store(shards_ - 1, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    invoke(0);
    unsigned left;
    while ((left = pending_.load(std::memory_order_acquire)) != 0) {
      pending_.wait(left, std::memory_order_acquire);
    }
    for (auto& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  void invoke(unsigned w) {
    try {
      fn_(ctx_, w);
    } catch (...) {
      errors_[w] = std::current_exception();
    }
  }

  void worker_loop(unsigned w) {
    // Baseline is the construction-time generation: a worker that starts
    // after the first dispatch must still see it as new, not adopt it.
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t gen;
      while ((gen = generation_.load(std::memory_order_acquire)) == seen) {
        generation_.wait(seen, std::memory_order_acquire);
      }
      seen = gen;
      if (stop_.load(std::memory_order_acquire)) return;
      invoke(w);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending_.notify_all();
      }
    }
  }

  unsigned shards_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<unsigned> pending_{0};
  std::atomic<bool> stop_{false};
  void (*fn_)(void*, unsigned) = nullptr;
  void* ctx_ = nullptr;
};

}  // namespace dualrad
