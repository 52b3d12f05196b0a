// Lazy coroutine task type used by every simulated activity.
//
// A `Task<T>` is a coroutine that starts suspended and runs when awaited
// (symmetric transfer), completing by resuming its awaiter. Exceptions
// thrown inside a task propagate to the awaiter. Root tasks are handed to
// `Simulator::spawn`, which drives them from the event loop.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/arena.h"

namespace hatrpc::sim {

template <class T>
class [[nodiscard]] Task;

namespace detail {

template <class T>
struct TaskPromise;

struct TaskPromiseBase {
  // Coroutine frames are the sim's highest-churn allocation (one per
  // awaited sub-task); recycle them through the FrameArena freelists.
  static void* operator new(size_t n) { return frame_arena_alloc(n); }
  static void operator delete(void* p, size_t n) { frame_arena_free(p, n); }

  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <class T>
struct TaskPromise : TaskPromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }

  T take() {
    if (error) std::rethrow_exception(error);
    return std::move(*value);
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase {
  Task<void> get_return_object();
  void return_void() {}

  void take() {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

/// A lazily-started coroutine producing a `T`. Move-only; owns the frame.
template <class T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  /// Awaiting a task starts it and suspends the awaiter until it finishes.
  /// An empty Task<void> is already done: awaiting it is a no-op.
  auto operator co_await() & = delete;  // must await an rvalue (ownership)
  auto operator co_await() && {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if constexpr (std::is_void_v<T>) {
          if (!h) return;
        }
        return h.promise().take();
      }
    };
    return Awaiter{h_};
  }

  /// Releases ownership of the coroutine handle (used by Simulator::spawn).
  Handle release() { return std::exchange(h_, {}); }

 private:
  Handle h_;
};

namespace detail {

template <class T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace hatrpc::sim
