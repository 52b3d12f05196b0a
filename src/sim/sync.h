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

  class Waiter;

  /// Suspends the caller until notify_one()/notify_all() reaches it.
  Waiter wait();

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
  bool notify_one() { return wake_one(false) != nullptr; }

  /// Like notify_one(), but marks the woken waiter as handed whatever the
  /// notifier is passing on (a lock, a queued item); Waiter::handed() then
  /// tells it apart from a waiter woken by notify_all(). Returns the woken
  /// waiter's owner (see Waiter), so the notifier can pass the thing
  /// straight to it, or nullptr when nobody is parked; waiters that take
  /// hand-offs name an owner.
  void* hand_off_one() {
    Node* n = wake_one(true);
    return n ? n->owner : nullptr;
  }

  void notify_all() {
    while (notify_one()) {
    }
  }

  size_t waiting() const { return size_; }
  Simulator& simulator() { return sim_; }

 private:
  struct Node;

  /// Returns the woken node (unlinked, still alive: its waiter resumes
  /// later), or nullptr if nobody is parked.
  Node* wake_one(bool handoff) {
    Node* n = head_;
    if (!n) return nullptr;
    n->notified = true;  // before unlink, so unlink keeps the rc token
    n->handed = handoff;
    unlink(n);
    n->timer.cancel();  // a timed waiter drops its deadline wakeup
    TimerHandle t = sim_.schedule_at(sim_.now(), n->h);
    // The woken segment continues the waiter: its pre-suspend clock rides
    // the wake timer alongside the notifier's snapshot.
    sim_.rc_join(n->rc_token, t);
    n->rc_token = RaceCheck::kNoClock;
    return n;
  }

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
    bool handed = false;  // woken by hand_off_one()
    void* owner = nullptr;  // the awaiter embedding this waiter

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

/// The awaiter WaitQueue::wait() returns. Its list node lives inside it,
/// so parking allocates nothing; the primitives below embed one in their
/// own awaiters.
class WaitQueue::Waiter {
 public:
  /// `owner` is the awaiter that embeds this waiter; hand_off_one()
  /// returns it to the notifier.
  explicit Waiter(WaitQueue& q, void* owner = nullptr) : q_(q) {
    n_.owner = owner;
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    n_.h = h;
    q_.link(&n_);
  }
  void await_resume() const noexcept {}

  /// True once a notify resumed this waiter (false if it never parked).
  bool notified() const { return n_.notified; }
  /// True if that notify was a hand_off_one().
  bool handed() const { return n_.handed; }

 private:
  WaitQueue& q_;
  Node n_;
};

inline WaitQueue::Waiter WaitQueue::wait() { return Waiter(*this); }

/// One-shot event: waiters resume once set() is called; waits after set()
/// complete immediately. State lives in a shared core so waiters that
/// outlive the Event object stay valid.
class Event {
  struct Core {
    explicit Core(Simulator& sim) : q(sim) {}
    WaitQueue q;
    bool set = false;
  };

 public:
  explicit Event(Simulator& sim) : core_(pooled_shared<Core>(sim)) {}

  /// Completes at once when already set, otherwise after one wake-up:
  /// an awaiter, not a task, so waiting allocates no frame. It holds the
  /// shared core, so the Event may die while a waiter is parked.
  class Wait {
   public:
    explicit Wait(std::shared_ptr<Core> core)
        : core_(std::move(core)), w_(core_->q) {}
    bool await_ready() const noexcept { return core_->set; }
    void await_suspend(std::coroutine_handle<> h) { w_.await_suspend(h); }
    void await_resume() {
      // set() is the only wake-up, so a resumed waiter sees the event set.
      core_->q.simulator().rc_sync_acquire(core_.get());
    }

   private:
    std::shared_ptr<Core> core_;
    WaitQueue::Waiter w_;
  };

  Wait wait() { return Wait(core_); }

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

 private:
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
///
/// Items go to poppers in FIFO order: a push() with poppers parked moves
/// its item into the oldest one's awaiter, so each woken popper gets its
/// own item whichever order the woken poppers resume in. A later pop() or
/// try_pop() takes only queued items, so it never overtakes a parked one.
template <class T>
class Channel {
 public:
  class Pop;

  explicit Channel(Simulator& sim) : q_(sim) {}
  /// Poppers handed an item that outlive the channel (frames destroyed at
  /// simulator teardown) must not unlink from it.
  ~Channel() {
    for (Pop* p = handed_head_; p; p = p->next_) p->linked_ = false;
  }

  void push(T v) {
    q_.simulator().rc_sync_release(this);
    if (auto* p = static_cast<Pop*>(q_.hand_off_one())) {
      p->item_.emplace(std::move(v));
      link_handed(p);
    } else {
      items_.push_back(std::move(v));
    }
  }

  /// Takes the next item, parking while none is queued: completes without
  /// suspending when an item is queued or the channel is closed, otherwise
  /// after the push() that hands it one (or the close() that ends it). An
  /// awaiter, not a task, so popping allocates no frame; a handed item
  /// lives in the awaiter, so it allocates nothing either.
  class Pop {
   public:
    explicit Pop(Channel& c) : c_(c), w_(c.q_, this) {}
    ~Pop() {
      if (linked_) c_.unlink_handed(this);
    }
    bool await_ready() const noexcept {
      return !c_.items_.empty() || c_.closed_;
    }
    void await_suspend(std::coroutine_handle<> h) { w_.await_suspend(h); }
    std::optional<T> await_resume() {
      if (w_.handed()) {
        // flush() may have taken the item back.
        if (!linked_) return std::nullopt;
        c_.unlink_handed(this);
        c_.q_.simulator().rc_sync_acquire(&c_);
        return std::move(item_);
      }
      if (w_.notified() || c_.items_.empty()) return std::nullopt;
      return c_.take_front();
    }

   private:
    friend class Channel;
    Channel& c_;
    WaitQueue::Waiter w_;
    std::optional<T> item_;  // handed by push()
    Pop* prev_ = nullptr;    // handed, not resumed yet: linked in c_
    Pop* next_ = nullptr;
    bool linked_ = false;
  };

  Pop pop() { return Pop(*this); }

  /// Takes the next queued item without waiting; items already handed to
  /// poppers are not queued.
  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    return take_front();
  }

  /// Removes every item, those handed to a popper that has not resumed yet
  /// included, and returns them in push order. Such a popper then resumes
  /// with nullopt, so close() the channel right after.
  std::deque<T> flush() {
    if (size() != 0) q_.simulator().rc_sync_acquire(this);
    // Handed items are older than queued ones: items are handed only while
    // poppers are parked, and poppers park only when nothing is queued.
    std::deque<T> out;
    while (Pop* p = handed_head_) {
      out.push_back(std::move(*p->item_));
      p->item_.reset();
      unlink_handed(p);
    }
    for (T& v : items_) out.push_back(std::move(v));
    items_.clear();
    return out;
  }

  /// Wakes every parked popper with nullopt. Items already handed out stay
  /// with their poppers, and pop() still drains what is queued.
  void close() {
    closed_ = true;
    q_.notify_all();
  }

  bool closed() const { return closed_; }
  /// Items not yet taken: queued ones, and those handed to a popper that
  /// has not resumed yet.
  size_t size() const { return handed_ + items_.size(); }
  /// Queued items a new pop() would take without waiting.
  size_t free_count() const { return items_.size(); }

 private:
  T take_front() {
    T v = std::move(items_.front());
    items_.pop_front();
    q_.simulator().rc_sync_acquire(this);
    return v;
  }

  void link_handed(Pop* p) {
    p->linked_ = true;
    p->prev_ = handed_tail_;
    p->next_ = nullptr;
    if (handed_tail_) {
      handed_tail_->next_ = p;
    } else {
      handed_head_ = p;
    }
    handed_tail_ = p;
    ++handed_;
  }

  void unlink_handed(Pop* p) {
    if (p->prev_) {
      p->prev_->next_ = p->next_;
    } else {
      handed_head_ = p->next_;
    }
    if (p->next_) {
      p->next_->prev_ = p->prev_;
    } else {
      handed_tail_ = p->prev_;
    }
    p->prev_ = p->next_ = nullptr;
    p->linked_ = false;
    --handed_;
  }

  WaitQueue q_;
  std::deque<T> items_;  // queued, not handed to anyone
  Pop* handed_head_ = nullptr;  // handed in push order, popper not resumed
  Pop* handed_tail_ = nullptr;
  size_t handed_ = 0;
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

/// Non-reentrant mutex for tasks. Ownership passes in FIFO order: unlock()
/// with waiters parked hands the lock straight to the oldest of them, so a
/// task that calls lock() later never overtakes a parked one.
class Mutex {
 public:
  explicit Mutex(Simulator& sim) : q_(sim) {}

  /// Completes without suspending when the mutex is free, otherwise when
  /// unlock() hands it over. An awaiter, not a task: no frame.
  class Lock {
   public:
    explicit Lock(Mutex& m) : m_(m), w_(m.q_, this) {}
    bool await_ready() noexcept {
      if (m_.locked_) return false;
      m_.locked_ = true;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) { w_.await_suspend(h); }
    void await_resume() { m_.q_.simulator().rc_sync_acquire(&m_); }

   protected:
    Mutex& m_;

   private:
    WaitQueue::Waiter w_;
  };

  Lock lock() { return Lock(*this); }

  void unlock() {
    q_.simulator().rc_sync_release(this);
    // With a waiter parked the lock stays held: it now belongs to that one.
    if (!q_.hand_off_one()) locked_ = false;
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

  /// lock() that resumes with the Guard that unlocks.
  class Scoped : public Lock {
   public:
    using Lock::Lock;
    Guard await_resume() {
      Lock::await_resume();
      return Guard(m_);
    }
  };

  Scoped scoped() { return Scoped(*this); }

 private:
  WaitQueue q_;
  bool locked_ = false;
};

}  // namespace hatrpc::sim
