#ifndef TIND_COMMON_CANCELLATION_H_
#define TIND_COMMON_CANCELLATION_H_

/// \file cancellation.h
/// Cooperative cancellation for long-running parallel work. A
/// CancellationToken is a cheap, copyable handle to a shared flag and an
/// optional steady-clock deadline: the initiator calls Cancel() (e.g. from
/// a signal handler thread), or the deadline passes, and workers poll
/// cancelled() between units of work. A token without a deadline never
/// reads the clock. Cancellation is advisory — already-started units run
/// to completion, so data structures are never observed half-written.

#include <atomic>
#include <chrono>
#include <memory>

namespace tind {

/// \brief Copyable handle to a shared cancellation flag and deadline.
class CancellationToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancellationToken() : state_(std::make_shared<State>()) {}
  /// A token that also reads as cancelled once `deadline` has passed.
  explicit CancellationToken(Clock::time_point deadline)
      : CancellationToken() {
    state_->deadline = deadline;
  }

  /// Requests cancellation. Idempotent, safe from any thread.
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire) ||
           (state_->deadline != Clock::time_point::max() &&
            Clock::now() >= state_->deadline);
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    /// Immutable after construction; max() means no deadline.
    Clock::time_point deadline = Clock::time_point::max();
  };
  std::shared_ptr<State> state_;
};

}  // namespace tind

#endif  // TIND_COMMON_CANCELLATION_H_
