// Stackful fiber: one suspendable user-level execution context, the unit
// the superstep engine multiplexes onto its bounded worker pool.
//
// Two switch substrates share this interface:
//
//  - A hand-rolled x86-64 register switch (callee-saved GPRs + mxcsr/x87
//    control word, ~25 ns round trip) used by plain Linux builds.  glibc's
//    swapcontext makes a rt_sigprocmask syscall on every switch (~225 ns
//    here), which dominated the engine's per-slice cost.
//  - POSIX ucontext (getcontext/makecontext/swapcontext) for every other
//    configuration, and always under TSan/ASan so the sanitizer fiber
//    annotations run against the path they were validated on.
//
// A fiber runs on a stack its caller owns: the superstep engine reserves
// one kFiberStackBytes stack per rank and recycles it across runs.
// The kernel commits the pages lazily, so thousands of fibers cost
// resident memory only for the few KiB each one actually touches.
//
// Sanitizer support: under ThreadSanitizer each fiber registers with
// __tsan_create_fiber and every switch is announced via
// __tsan_switch_to_fiber, so TSan tracks happens-before across fiber
// migrations between worker threads.  Under AddressSanitizer the switches
// are bracketed with __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber so fake-stack bookkeeping follows the
// active stack.
//
// A fiber may be resumed from different OS threads over its lifetime (the
// engine migrates runnable ranks to whichever worker is free), but never
// from two threads at once, and yield() must only be called from inside
// the running fiber.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace mwr::parallel {

/// The stack the superstep engine reserves for every fiber.  Driver
/// bodies keep bulk data on the heap (vectors, MWU state), so 128 KiB
/// leaves an order of magnitude of headroom over observed use while
/// staying cheap to reserve by the thousand.
inline constexpr std::size_t kFiberStackBytes = 128 * 1024;

class Fiber {
 public:
  /// Prepares (but does not start) a fiber executing `entry` on a
  /// caller-owned stack of `stack_bytes` (>= 16 KiB; the superstep engine
  /// recycles one per rank across runs).  The stack must stay valid for
  /// the fiber's lifetime and must not be shared with a live fiber.
  Fiber(std::function<void()> entry, char* stack, std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber on the calling thread until it yields or finishes.
  /// Must not be called on a finished fiber.
  void resume();

  /// Suspends the fiber, returning control to the resume() that started
  /// this slice.  Must be called from inside this fiber.
  void yield();

  /// True once entry() has returned; resume() is no longer allowed.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The fiber currently executing on this OS thread, or nullptr.
  [[nodiscard]] static Fiber* current() noexcept;

 private:
  static void trampoline(unsigned hi, unsigned lo);  // ucontext substrate
  static void fast_entry();                          // fast-switch substrate
  void run();

  std::function<void()> entry_;
  std::size_t stack_bytes_;
  char* stack_base_ = nullptr;      // the caller-owned stack.
  ucontext_t context_{};
  ucontext_t* return_context_ = nullptr;
  // Fast-switch substrate: the fiber's saved stack pointer and the worker
  // stack pointer to switch back to (unused on the ucontext path).
  void* fast_sp_ = nullptr;
  void* fast_return_sp_ = nullptr;
  bool started_ = false;
  bool finished_ = false;

  // Sanitizer bookkeeping (unused members are harmless in plain builds).
  void* tsan_fiber_ = nullptr;
  void* tsan_return_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* asan_return_bottom_ = nullptr;
  std::size_t asan_return_size_ = 0;
};

}  // namespace mwr::parallel
