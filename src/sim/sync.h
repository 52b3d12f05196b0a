// Awaitable synchronization primitives for simulated tasks: wait queues,
// one-shot events, counting semaphores, MPSC/MPMC channels, wait groups,
// and a mutex. All are single-(host-)threaded; "blocking" means suspending
// the coroutine until another task signals it via the simulator queue.
//
// Waiters are linked intrusively: the list node lives inside the awaiter,
// which lives inside the suspended coroutine's frame, so parking a task
// allocates nothing. Timed waits pair the node with a cancellable
// TimerHandle — whichever of notify/deadline fires first synchronously
// removes the other, so a timed-out waiter leaves no dead event behind and
// a notified waiter leaves no stale timer pinning run() open.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "sim/arena.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace hatrpc::sim {

/// FIFO queue of suspended coroutines. Building block for everything else.
class WaitQueue {
 public:
  explicit WaitQueue(Simulator& sim) : sim_(sim) {}
  /// Forgets the waiters still parked here: their frames may be destroyed
  /// later (at simulator teardown) and must not unlink from a dead queue.
  ~WaitQueue() {
    for (Node* n = head_; n; n = n->next) n->q = nullptr;
  }
  WaitQueue(const WaitQueue&) = delete;  // nodes hold pointers into *this
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Suspends the caller until notify_one()/notify_all() reaches it.
  auto wait() {
    struct Awaiter {
      WaitQueue& q;
      Node n;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        n.h = h;
        q.link(&n);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, {}};
  }

  /// Suspends until notified or absolute virtual time `deadline`, whichever
  /// comes first. Returns true if notified, false on timeout. The losing
  /// wakeup (timer or queue entry) is removed from the schedule either way.
  auto wait_until(Time deadline) {
    struct Awaiter {
      WaitQueue& q;
      Time deadline;
      Node n;
      bool await_ready() const noexcept {
        return deadline <= q.sim_.now();  // immediate timeout
      }
      bool await_suspend(std::coroutine_handle<> h) {
        n.h = h;
        q.link(&n);
        n.timer = q.sim_.schedule_at(deadline, h);
        return true;
      }
      bool await_resume() noexcept {
        if (!n.notified && n.q) n.q->unlink(&n);  // timed out while linked
        return n.notified;
      }
    };
    return Awaiter{*this, deadline, {}};
  }

  /// Resumes the oldest waiter (scheduled at the current virtual time).
  /// Returns whether anyone was actually woken.
  bool notify_one() {
    Node* n = head_;
    if (!n) return false;
    n->notified = true;  // before unlink, so unlink keeps the rc token
    unlink(n);
    n->timer.cancel();  // a timed waiter drops its deadline wakeup
    TimerHandle t = sim_.schedule_at(sim_.now(), n->h);
    // The woken segment continues the waiter: its pre-suspend clock rides
    // the wake timer alongside the notifier's snapshot.
    sim_.rc_join(n->rc_token, t);
    n->rc_token = RaceCheck::kNoClock;
    return true;
  }

  void notify_all() {
    while (notify_one()) {
    }
  }

  size_t waiting() const { return size_; }
  Simulator& simulator() { return sim_; }

 private:
  /// Embedded in the awaiter (i.e. in the waiting coroutine's frame); the
  /// destructor unlinks, so destroying a suspended waiter is safe.
  struct Node {
    std::coroutine_handle<> h{};
    Node* prev = nullptr;
    Node* next = nullptr;
    WaitQueue* q = nullptr;  // non-null while linked
    TimerHandle timer{};
    uint32_t rc_token = RaceCheck::kNoClock;  // pre-suspend clock snapshot
    bool notified = false;

    Node() = default;
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    ~Node() {
      if (q) q->unlink(this);
      timer.cancel();
    }
  };

  void link(Node* n) {
    n->q = this;
    n->prev = tail_;
    n->next = nullptr;
    if (tail_) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++size_;
    n->rc_token = sim_.rc_capture();
  }

  void unlink(Node* n) {
    if (n->prev) {
      n->prev->next = n->next;
    } else {
      head_ = n->next;
    }
    if (n->next) {
      n->next->prev = n->prev;
    } else {
      tail_ = n->prev;
    }
    n->prev = n->next = nullptr;
    n->q = nullptr;
    --size_;
    if (!n->notified) {  // timed out / destroyed: nobody consumes the token
      sim_.rc_drop(n->rc_token);
      n->rc_token = RaceCheck::kNoClock;
    }
  }

  Simulator& sim_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  size_t size_ = 0;
};

/// One-shot event: waiters resume once set() is called; waits after set()
/// complete immediately. State lives in a shared core so waiters that
/// outlive the Event object stay valid.
class Event {
 public:
  explicit Event(Simulator& sim) : core_(pooled_shared<Core>(sim)) {}

  Task<void> wait() {
    auto core = core_;
    while (!core->set) co_await core->q.wait();
    // Covers the no-suspend fast path (already set => no wake edge).
    core->q.simulator().rc_sync_acquire(core.get());
  }

  /// Waits until set() or virtual time `deadline`, whichever comes first;
  /// returns whether the event was set. The deadline is absolute. A timeout
  /// cancels the waiter's timer entry — unlike the old implementation,
  /// nothing lingers in the simulator queue until the deadline.
  Task<bool> wait_until(Time deadline) {
    auto core = core_;
    Simulator& sim = core->q.simulator();
    while (!core->set && sim.now() < deadline) {
      co_await core->q.wait_until(deadline);
    }
    if (core->set) sim.rc_sync_acquire(core.get());
    co_return core->set;
  }

  void set() {
    core_->q.simulator().rc_sync_release(core_.get());
    core_->set = true;
    core_->q.notify_all();
  }

  bool is_set() const { return core_->set; }

 private:
  struct Core {
    explicit Core(Simulator& sim) : q(sim) {}
    WaitQueue q;
    bool set = false;
  };

  std::shared_ptr<Core> core_;
};

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& sim, size_t permits) : q_(sim), permits_(permits) {}

  Task<void> acquire() {
    while (permits_ == 0) co_await q_.wait();
    --permits_;
    q_.simulator().rc_sync_acquire(this);
  }

  bool try_acquire() {
    if (permits_ == 0) return false;
    --permits_;
    q_.simulator().rc_sync_acquire(this);
    return true;
  }

  void release(size_t n = 1) {
    q_.simulator().rc_sync_release(this);
    permits_ += n;
    for (size_t i = 0; i < n; ++i) {
      if (!q_.notify_one()) break;  // no waiters left — stop early
    }
  }

  size_t available() const { return permits_; }

 private:
  WaitQueue q_;
  size_t permits_;
};

/// Unbounded multi-producer / multi-consumer channel. pop() on a closed,
/// empty channel returns nullopt.
template <class T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : q_(sim) {}

  void push(T v) {
    q_.simulator().rc_sync_release(this);
    items_.push_back(std::move(v));
    q_.notify_one();
  }

  Task<std::optional<T>> pop() {
    while (items_.empty()) {
      if (closed_) co_return std::nullopt;
      co_await q_.wait();
    }
    T v = std::move(items_.front());
    items_.pop_front();
    q_.simulator().rc_sync_acquire(this);
    co_return v;
  }

  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    q_.simulator().rc_sync_acquire(this);
    return v;
  }

  void close() {
    closed_ = true;
    q_.notify_all();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }

 private:
  WaitQueue q_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Golang-style wait group for joining a dynamic set of tasks.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : q_(sim) {}

  void add(size_t n = 1) { count_ += n; }

  void done() {
    q_.simulator().rc_sync_release(this);
    if (--count_ == 0) q_.notify_all();
  }

  Task<void> wait() {
    while (count_ != 0) co_await q_.wait();
    q_.simulator().rc_sync_acquire(this);
  }

  size_t count() const { return count_; }

 private:
  WaitQueue q_;
  size_t count_ = 0;
};

/// Non-reentrant mutex for tasks.
class Mutex {
 public:
  explicit Mutex(Simulator& sim) : q_(sim) {}

  Task<void> lock() {
    while (locked_) co_await q_.wait();
    locked_ = true;
    q_.simulator().rc_sync_acquire(this);
  }

  void unlock() {
    q_.simulator().rc_sync_release(this);
    locked_ = false;
    q_.notify_one();
  }

  bool locked() const { return locked_; }

  /// RAII helper: `auto g = co_await mu.scoped();`
  class Guard {
   public:
    explicit Guard(Mutex& m) : m_(&m) {}
    Guard(Guard&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        reset();
        m_ = std::exchange(o.m_, nullptr);
      }
      return *this;
    }
    ~Guard() { reset(); }

   private:
    void reset() {
      if (m_) m_->unlock();
      m_ = nullptr;
    }
    Mutex* m_;
  };

  Task<Guard> scoped() {
    co_await lock();
    co_return Guard{*this};
  }

 private:
  WaitQueue q_;
  bool locked_ = false;
};

}  // namespace hatrpc::sim
