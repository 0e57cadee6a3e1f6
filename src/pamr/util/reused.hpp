// Call-scoped storage that keeps its capacity across calls on one thread.
//
// A router builds its indexes afresh on every route() call, and on the
// paper's 8×8 regime the buffers behind them (a list per link, a rank per
// link, flat path slices) cost more to allocate and free than to fill.
// Reused<S> holds one S — a struct of buffers — taken from its thread's
// spare when built and handed back when destroyed, so the next call on the
// same thread refills the same capacity instead of allocating. The owner
// re-initializes every buffer it reads; the spare keeps capacity, never
// meaning. A second Reused<S> alive at the same time on the same thread
// finds the spare empty and starts from empty buffers, so nesting stays
// correct. The spare is a thread_local: it dies with its thread and holds
// at most the largest instance that thread has seen.
#pragma once

#include <utility>

namespace pamr {

template <class S>
class Reused {
 public:
  Reused() : value_(std::exchange(spare(), S{})) {}
  ~Reused() { spare() = std::move(value_); }
  Reused(const Reused&) = delete;
  Reused& operator=(const Reused&) = delete;

  [[nodiscard]] S& operator*() noexcept { return value_; }
  [[nodiscard]] S* operator->() noexcept { return &value_; }
  [[nodiscard]] const S* operator->() const noexcept { return &value_; }

 private:
  static S& spare() {
    thread_local S held;
    return held;
  }

  S value_;
};

}  // namespace pamr
