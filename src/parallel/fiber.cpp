#include "parallel/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <stdexcept>

// Sanitizer detection: clang spells it __has_feature(...), gcc defines
// __SANITIZE_*__ macros.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MWR_FIBER_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define MWR_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MWR_FIBER_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define MWR_FIBER_ASAN 1
#endif

#if defined(MWR_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(MWR_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

// The register-only switch avoids glibc swapcontext's per-switch
// rt_sigprocmask syscall.  Sanitizer builds stay on ucontext: their fiber
// annotations are validated against that path, and switch latency is not
// what a sanitizer run measures.
#if defined(__x86_64__) && defined(__linux__) && !defined(MWR_FIBER_TSAN) && \
    !defined(MWR_FIBER_ASAN)
#define MWR_FIBER_FAST_SWITCH 1
#endif

namespace mwr::parallel {

namespace {
thread_local Fiber* current_fiber = nullptr;
}  // namespace

Fiber* Fiber::current() noexcept { return current_fiber; }

#if defined(MWR_FIBER_FAST_SWITCH)

// void mwr_fiber_switch(void** save_sp, void* restore_sp)
//
// Saves the System V callee-saved state (rbp rbx r12-r15 plus mxcsr and
// the x87 control word — everything a conforming caller may assume
// survives a function call) on the current stack, stores rsp through
// save_sp, then restores the mirror-image frame at restore_sp and returns
// on that stack.  A fresh fiber's stack is pre-seeded with such a frame
// whose return address is the trampoline below.
extern "C" void mwr_fiber_switch(void** save_sp, void* restore_sp) noexcept;

__asm__(
    ".text\n"
    ".align 16\n"
    ".local mwr_fiber_switch\n"
    ".type mwr_fiber_switch, @function\n"
    "mwr_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size mwr_fiber_switch, .-mwr_fiber_switch\n");

namespace {

// Seeds `stack` with the frame mwr_fiber_switch restores, so the first
// switch into the fiber "returns" into `entry` with the ABI's
// rsp % 16 == 8 entry alignment.
void* seed_fast_stack(char* stack, std::size_t stack_bytes, void (*entry)()) {
  auto top = reinterpret_cast<std::uintptr_t>(stack) + stack_bytes;
  top &= ~static_cast<std::uintptr_t>(15);
  auto* p = reinterpret_cast<std::uint64_t*>(top);
  *--p = 0;  // fake caller return address; the entry frame never returns
  *--p = reinterpret_cast<std::uint64_t>(entry);
  for (int i = 0; i < 6; ++i) *--p = 0;  // rbp rbx r12 r13 r14 r15
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(fcw));
  *--p = static_cast<std::uint64_t>(mxcsr) |
         (static_cast<std::uint64_t>(fcw) << 32);
  return p;
}

}  // namespace

Fiber::Fiber(std::function<void()> entry, char* stack, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_bytes_(stack_bytes), stack_base_(stack) {
  if (stack == nullptr || stack_bytes < 16 * 1024)
    throw std::invalid_argument("Fiber: external stack null or too small");
}

Fiber::~Fiber() = default;

// resume() publishes the fiber in current_fiber before switching, so the
// fresh stack's first frame needs no argument plumbing.
void Fiber::fast_entry() { current_fiber->run(); }

void Fiber::run() {
  entry_();
  finished_ = true;
  mwr_fiber_switch(&fast_sp_, fast_return_sp_);
  assert(false && "resumed a finished fiber");
}

void Fiber::resume() {
  assert(!finished_ && "resume on finished fiber");
  assert(current_fiber == nullptr && "fibers do not nest");
  if (!started_) {
    fast_sp_ = seed_fast_stack(stack_base_, stack_bytes_, &Fiber::fast_entry);
    started_ = true;
  }
  current_fiber = this;
  mwr_fiber_switch(&fast_return_sp_, fast_sp_);
  current_fiber = nullptr;
}

void Fiber::yield() {
  assert(current_fiber == this && "yield outside the running fiber");
  mwr_fiber_switch(&fast_sp_, fast_return_sp_);
}

#else  // ucontext substrate

Fiber::Fiber(std::function<void()> entry, char* stack, std::size_t stack_bytes)
    : entry_(std::move(entry)), stack_bytes_(stack_bytes), stack_base_(stack) {
  if (stack == nullptr || stack_bytes < 16 * 1024)
    throw std::invalid_argument("Fiber: external stack null or too small");
#if defined(MWR_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(MWR_FIBER_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto address = (static_cast<std::uintptr_t>(hi) << 32) |
                 static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(address)->run();
}

void Fiber::run() {
#if defined(MWR_FIBER_ASAN)
  // First landing on the fiber stack: complete the switch the resuming
  // worker announced, capturing the worker stack we must switch back to.
  __sanitizer_finish_switch_fiber(nullptr, &asan_return_bottom_,
                                  &asan_return_size_);
#endif
  // The engine's entry wrapper catches everything; an exception escaping
  // here would unwind off the top of the fiber stack and terminate.
  entry_();
  finished_ = true;
#if defined(MWR_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_return_, 0);
#endif
#if defined(MWR_FIBER_ASAN)
  // nullptr fake-stack-save: this context is exiting for good.
  __sanitizer_start_switch_fiber(nullptr, asan_return_bottom_,
                                 asan_return_size_);
#endif
  swapcontext(&context_, return_context_);
  assert(false && "resumed a finished fiber");
}

void Fiber::resume() {
  assert(!finished_ && "resume on finished fiber");
  assert(current_fiber == nullptr && "fibers do not nest");
  if (!started_) {
    if (getcontext(&context_) != 0)
      throw std::runtime_error("Fiber: getcontext failed");
    context_.uc_stack.ss_sp = stack_base_;
    context_.uc_stack.ss_size = stack_bytes_;
    context_.uc_link = nullptr;
    const auto address = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(address >> 32),
                static_cast<unsigned>(address & 0xffffffffu));
    started_ = true;
  }
  ucontext_t return_context;
  return_context_ = &return_context;
  current_fiber = this;
#if defined(MWR_FIBER_TSAN)
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(MWR_FIBER_ASAN)
  void* worker_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&worker_fake_stack, stack_base_,
                                 stack_bytes_);
#endif
  swapcontext(&return_context, &context_);
#if defined(MWR_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(worker_fake_stack, nullptr, nullptr);
#endif
  current_fiber = nullptr;
  return_context_ = nullptr;
}

void Fiber::yield() {
  assert(current_fiber == this && "yield outside the running fiber");
#if defined(MWR_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_return_, 0);
#endif
#if defined(MWR_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&asan_fake_stack_, asan_return_bottom_,
                                 asan_return_size_);
#endif
  swapcontext(&context_, return_context_);
  // Resumed — possibly on a different worker thread, whose stack the
  // finish call below records as the new switch-back target.
#if defined(MWR_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_return_bottom_,
                                  &asan_return_size_);
#endif
}

#endif  // MWR_FIBER_FAST_SWITCH

}  // namespace mwr::parallel
