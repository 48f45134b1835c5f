#include "src/vgpu/fiber_exec.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/base/error.h"
#include "src/base/strings.h"

// ThreadSanitizer cannot follow a fiber stack switch: the shadow stack
// desynchronizes and fiber code crashes or reports phantom races. The TSan
// runtime nominally ships a fiber API for this, but GCC 12's libtsan (the v3
// runtime) SEGVs inside __tsan_create_fiber itself, so it is unusable here.
// TSan builds instead run needs_sync blocks on real host threads (see
// run_block_threads below), which TSan models natively. So do targets other
// than x86-64, for which there is no switch routine.
#if defined(__SANITIZE_THREAD__)
#define QHIP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QHIP_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && !defined(QHIP_TSAN_BUILD)
#define QHIP_FIBER_SWITCH 1
#endif

// AddressSanitizer follows the fibers through the start/finish switch
// annotations, so stack-use checks and exception unwinding see the right
// stack bounds.
#if defined(__SANITIZE_ADDRESS__)
#define QHIP_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QHIP_ASAN_BUILD 1
#endif
#endif

#ifdef QHIP_ASAN_BUILD
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef QHIP_FIBER_SWITCH
// qhip_fiber_switch(save_sp, load_sp): pushes the SysV callee-saved
// registers, MXCSR and the x87 control word, stores rsp to *save_sp, loads
// load_sp and pops the same set from the target stack. Caller-saved
// registers need no saving: the call itself clobbers them. A new fiber's
// stack holds a hand-built frame of this shape that "returns" into
// BlockExec::fiber_entry.
extern "C" void qhip_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl qhip_fiber_switch
  .hidden qhip_fiber_switch
  .type qhip_fiber_switch, @function
qhip_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size qhip_fiber_switch, .-qhip_fiber_switch
  .popsection
)");
#endif

namespace qhip::vgpu {

namespace {

constexpr std::size_t kStackBytes = 128 << 10;

std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Thrown inside a lane thread to unwind it deliberately after a sibling lane
// failed or a deadlock was declared; never escapes this translation unit.
struct AbortLane {};

bool threaded_sync_mode() {
#ifndef QHIP_FIBER_SWITCH
  return true;
#else
  const char* e = std::getenv("QHIP_BLOCK_EXEC");
  return e != nullptr && std::strcmp(e, "threads") == 0;
#endif
}

#ifdef QHIP_FIBER_SWITCH
// The scheduler parks the running BlockExec here before the first switch of
// a run, so a fresh fiber can find it. All switches of a run happen on one
// host thread, so thread_local is exact.
thread_local BlockExec* g_exec = nullptr;

// Maps kStackBytes of stack above a PROT_NONE guard page; returns the lowest
// usable byte. Pages are committed on first touch, not here.
std::byte* map_stack() {
  const std::size_t guard = guard_bytes();
  void* p = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  check(p != MAP_FAILED, "BlockExec: cannot map a fiber stack");
  if (mprotect(p, guard, PROT_NONE) != 0) {
    munmap(p, guard + kStackBytes);
    throw Error("BlockExec: cannot protect a fiber stack guard page");
  }
  return static_cast<std::byte*>(p) + guard;
}

// Builds the frame qhip_fiber_switch pops for a fiber that has not run yet:
// control words, six zeroed callee-saved registers, fiber_entry as the
// return address, and a null return address above it so the entry function
// starts with the ABI's call-site alignment and backtraces end there.
void* initial_frame(std::byte* stack_top, void (*entry)()) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  auto* sp = reinterpret_cast<std::uint64_t*>(stack_top) - 10;
  sp[0] = fcw;
  sp[1] = mxcsr;
  for (int i = 2; i < 8; ++i) sp[i] = 0;  // r15 r14 r13 r12 rbx rbp
  sp[8] = reinterpret_cast<std::uint64_t>(entry);
  sp[9] = 0;
  return sp;
}
#endif

// ASan fiber annotations; no-ops in other builds.
inline void asan_start_switch(void** fake_stack_save, const void* lo,
                              std::size_t bytes) {
#ifdef QHIP_ASAN_BUILD
  __sanitizer_start_switch_fiber(fake_stack_save, lo, bytes);
#else
  (void)fake_stack_save, (void)lo, (void)bytes;
#endif
}

inline void asan_finish_switch(void* fake_stack, const void** old_lo,
                               std::size_t* old_bytes) {
#ifdef QHIP_ASAN_BUILD
  __sanitizer_finish_switch_fiber(fake_stack, old_lo, old_bytes);
#else
  (void)fake_stack, (void)old_lo, (void)old_bytes;
#endif
}

}  // namespace

void BlockExec::StackUnmap::operator()(std::byte* lo) const noexcept {
  munmap(lo - guard_bytes(), guard_bytes() + kStackBytes);
}

BlockExec::BlockExec(unsigned max_threads, std::size_t max_shared, unsigned warp_size)
    : max_threads_(max_threads),
      warp_size_(warp_size),
      fibers_(max_threads),
      shared_(max_shared),
      ready_(max_threads) {
  check(warp_size == 32 || warp_size == 64,
        "BlockExec: warp size must be 32 or 64");
  const unsigned max_warps = (max_threads + warp_size - 1) / warp_size;
  warp_live_.resize(max_warps);
  warp_wait_.resize(max_warps);
  warp_gen_.resize(max_warps);
}

BlockExec::~BlockExec() = default;

void BlockExec::run_block(const KernelFn& kernel, unsigned block_idx,
                          unsigned block_dim, unsigned grid_dim,
                          std::size_t shared_bytes, bool needs_sync) {
  check(block_dim >= 1 && block_dim <= max_threads_,
        strfmt("BlockExec: block_dim %u out of range [1, %u]", block_dim,
               max_threads_));
  check(shared_bytes <= shared_.size(),
        strfmt("BlockExec: %zu B dynamic shared memory exceeds the %zu B limit",
               shared_bytes, shared_.size()));
  if (needs_sync) {
    static const bool use_threads = threaded_sync_mode();
    if (use_threads) {
      run_block_threads(kernel, block_idx, block_dim, grid_dim, shared_bytes);
    } else {
      run_block_fibers(kernel, block_idx, block_dim, grid_dim, shared_bytes);
    }
  } else {
    run_block_direct(kernel, block_idx, block_dim, grid_dim, shared_bytes);
  }
}

void BlockExec::run_block_direct(const KernelFn& kernel, unsigned block_idx,
                                 unsigned block_dim, unsigned grid_dim,
                                 std::size_t shared_bytes) {
  sync_enabled_ = false;
  for (unsigned tid = 0; tid < block_dim; ++tid) {
    KernelCtx ctx(this, tid, block_idx, block_dim, grid_dim, warp_size_,
                  shared_.data(), shared_bytes);
    kernel(ctx);
  }
}

void BlockExec::begin_sync_run(const KernelFn& kernel, unsigned block_idx,
                               unsigned block_dim, unsigned grid_dim,
                               std::size_t shared_bytes) {
  sync_enabled_ = true;
  kernel_ = &kernel;
  block_idx_ = block_idx;
  block_dim_ = block_dim;
  grid_dim_ = grid_dim;
  shared_bytes_ = shared_bytes;
  error_ = nullptr;
  live_ = block_dim;
  waiting_ = 0;
  at_barrier_ = 0;
  block_gen_ = 0;
  for (unsigned w = 0, lo = 0; lo < block_dim; ++w, lo += warp_size_) {
    warp_live_[w] = std::min(warp_size_, block_dim - lo);
    warp_wait_[w] = 0;
    warp_gen_[w] = 0;
  }
  for (unsigned t = 0; t < block_dim; ++t) {
    fibers_[t].st = St::kRunnable;
    fibers_[t].slot = 0;
  }
}

void BlockExec::rethrow_run_error() {
  kernel_ = nullptr;
  if (error_) {
    auto ep = error_;
    error_ = nullptr;
    std::rethrow_exception(ep);
  }
}

// --- rendezvous counters (both sync modes) ---

void BlockExec::set_state(unsigned tid, St s) {
  Fiber& f = fibers_[tid];
  const unsigned w = tid / warp_size_;
  if (f.st == St::kAtBarrier) {
    --at_barrier_;
    --waiting_;
  } else if (f.st == St::kAtWarpSync) {
    --warp_wait_[w];
    --waiting_;
  }
  f.st = s;
  switch (s) {
    case St::kAtBarrier:
      ++at_barrier_;
      ++waiting_;
      // Exited lanes count as arrived: only live lanes are awaited.
      if (at_barrier_ == live_) release(St::kAtBarrier, 0, block_dim_);
      break;
    case St::kAtWarpSync:
      ++warp_wait_[w];
      ++waiting_;
      if (warp_wait_[w] == warp_live_[w]) {
        const auto [lo, hi] = warp_range(tid);
        release(St::kAtWarpSync, lo, hi);
      }
      break;
    case St::kDone:
      // An exit shrinks the membership the rendezvous wait for.
      --live_;
      --warp_live_[w];
      if (at_barrier_ > 0 && at_barrier_ == live_) {
        release(St::kAtBarrier, 0, block_dim_);
      }
      if (warp_wait_[w] > 0 && warp_wait_[w] == warp_live_[w]) {
        const auto [lo, hi] = warp_range(tid);
        release(St::kAtWarpSync, lo, hi);
      }
      break;
    default:
      break;
  }
}

void BlockExec::release(St waiting_at, unsigned lo, unsigned hi) {
  for (unsigned t = lo; t < hi; ++t) {
    if (fibers_[t].st != waiting_at) continue;
    set_state(t, St::kRunnable);
    if (!threaded_) push_ready(t);
  }
  if (waiting_at == St::kAtBarrier) {
    ++block_gen_;
  } else {
    ++warp_gen_[lo / warp_size_];
  }
  if (threaded_) tcv_.notify_all();
}

std::exception_ptr BlockExec::deadlock_error() const {
  return std::make_exception_ptr(Error(strfmt(
      "vgpu: __syncthreads deadlock in block %u: %u thread(s) waiting at a "
      "barrier that %u already-exited thread(s) can never reach",
      block_idx_, live_, block_dim_ - live_)));
}

std::pair<unsigned, unsigned> BlockExec::warp_range(unsigned tid) const {
  const unsigned lo = tid / warp_size_ * warp_size_;
  return {lo, std::min(lo + warp_size_, block_dim_)};
}

// --- fiber sync mode ---

void BlockExec::push_ready(unsigned tid) {
  unsigned at = ready_head_ + ready_count_;
  if (at >= max_threads_) at -= max_threads_;
  ready_[at] = tid;
  ++ready_count_;
}

unsigned BlockExec::pop_ready() {
  const unsigned tid = ready_[ready_head_];
  if (++ready_head_ == max_threads_) ready_head_ = 0;
  --ready_count_;
  return tid;
}

#ifdef QHIP_FIBER_SWITCH

void BlockExec::run_block_fibers(const KernelFn& kernel, unsigned block_idx,
                                 unsigned block_dim, unsigned grid_dim,
                                 std::size_t shared_bytes) {
  threaded_ = false;
  begin_sync_run(kernel, block_idx, block_dim, grid_dim, shared_bytes);
  // Every lane starts runnable, in tid order, on a fresh frame that carries
  // this (the launching) thread's floating-point control words.
  ready_head_ = 0;
  ready_count_ = 0;
  for (unsigned t = 0; t < block_dim; ++t) {
    Fiber& f = fibers_[t];
    if (!f.stack) f.stack.reset(map_stack());
#ifdef QHIP_ASAN_BUILD
    // The previous run's frames on this stack never returned (a finished
    // fiber switches out of fiber_entry; a failed run abandons its fibers),
    // so their redzones are still poisoned.
    ASAN_UNPOISON_MEMORY_REGION(f.stack.get(), kStackBytes);
#endif
    f.sp = initial_frame(f.stack.get() + kStackBytes, &BlockExec::fiber_entry);
    push_ready(t);
  }

  g_exec = this;
  while (live_ > 0 && !error_) {
    // Nothing runnable yet lanes remain: all of them are parked at
    // rendezvous that no one can complete.
    if (ready_count_ == 0) {
      error_ = deadlock_error();
      break;
    }
    resume(pop_ready());
  }
  rethrow_run_error();
}

void BlockExec::resume(unsigned tid) {
  Fiber& f = fibers_[tid];
  current_ = tid;
  from_scheduler_ = true;
  asan_start_switch(&sched_fake_stack_, f.stack.get(), kStackBytes);
  qhip_fiber_switch(&sched_sp_, f.sp);
  asan_finish_switch(sched_fake_stack_, nullptr, nullptr);
}

void BlockExec::switch_out(unsigned tid, bool exiting) {
  Fiber& f = fibers_[tid];
  // A null save slot tells ASan an exiting fiber's stack is finished with.
  void** fake_stack_save = exiting ? nullptr : &f.fake_stack;
  if (ready_count_ > 0 && !error_) {
    // Hand off straight to the next runnable lane.
    const unsigned next = pop_ready();
    if (next == tid) return;  // this lane completed its own rendezvous
    Fiber& n = fibers_[next];
    current_ = next;
    from_scheduler_ = false;
    asan_start_switch(fake_stack_save, n.stack.get(), kStackBytes);
    qhip_fiber_switch(&f.sp, n.sp);
  } else {
    asan_start_switch(fake_stack_save, sched_stack_lo_, sched_stack_bytes_);
    qhip_fiber_switch(&f.sp, sched_sp_);
  }
  asan_finish_switch(f.fake_stack, nullptr, nullptr);
}

void BlockExec::park(unsigned tid, St at) {
  set_state(tid, at);
  switch_out(tid, /*exiting=*/false);
}

void BlockExec::fiber_entry() {
  BlockExec* self = g_exec;
  const unsigned tid = self->current_;
  const void* from_lo = nullptr;
  std::size_t from_bytes = 0;
  asan_finish_switch(nullptr, &from_lo, &from_bytes);
  if (self->from_scheduler_) {
    self->sched_stack_lo_ = from_lo;
    self->sched_stack_bytes_ = from_bytes;
  }
  self->fiber_main(tid);
  self->set_state(tid, St::kDone);
  self->switch_out(tid, /*exiting=*/true);
  __builtin_unreachable();
}

#else

void BlockExec::run_block_fibers(const KernelFn&, unsigned, unsigned, unsigned,
                                 std::size_t) {
  throw Error("BlockExec: fiber mode needs x86-64");
}

void BlockExec::park(unsigned, St) {
  throw Error("BlockExec: fiber mode needs x86-64");
}

#endif  // QHIP_FIBER_SWITCH

void BlockExec::fiber_main(unsigned tid) {
  try {
    KernelCtx ctx(this, tid, block_idx_, block_dim_, grid_dim_, warp_size_,
                  shared_.data(), shared_bytes_);
    (*kernel_)(ctx);
  } catch (...) {
    // Propagate to the scheduler; sibling fibers are abandoned (their stacks
    // are reused, never unwound — device kernels must not own resources).
    if (!error_) error_ = std::current_exception();
  }
}

// --- threaded sync mode (TSan, non-x86-64, or QHIP_BLOCK_EXEC=threads) ---

void BlockExec::run_block_threads(const KernelFn& kernel, unsigned block_idx,
                                  unsigned block_dim, unsigned grid_dim,
                                  std::size_t shared_bytes) {
  threaded_ = true;
  abort_ = false;
  begin_sync_run(kernel, block_idx, block_dim, grid_dim, shared_bytes);

  std::vector<std::thread> lanes;
  lanes.reserve(block_dim);
  for (unsigned t = 0; t < block_dim; ++t) {
    lanes.emplace_back([this, t] { lane_thread_main(t); });
  }
  for (auto& th : lanes) th.join();

  threaded_ = false;
  rethrow_run_error();
}

void BlockExec::lane_thread_main(unsigned tid) {
  try {
    KernelCtx ctx(this, tid, block_idx_, block_dim_, grid_dim_, warp_size_,
                  shared_.data(), shared_bytes_);
    (*kernel_)(ctx);
  } catch (const AbortLane&) {
    // Deliberate unwind after a sibling failure or deadlock; the run already
    // holds the error to rethrow.
  } catch (...) {
    std::lock_guard lk(tmu_);
    if (!error_) error_ = std::current_exception();
    abort_ = true;
    tcv_.notify_all();
  }
  std::lock_guard lk(tmu_);
  // This exit may complete a rendezvous, or strand the remaining waiters in
  // a deadlock.
  set_state(tid, St::kDone);
  check_deadlock_locked();
}

void BlockExec::check_deadlock_locked() {
  if (live_ == 0 || waiting_ < live_ || abort_) return;
  abort_ = true;
  if (!error_) error_ = deadlock_error();
  tcv_.notify_all();
}

std::unique_lock<std::mutex> BlockExec::lock_if_threaded() {
  return threaded_ ? std::unique_lock(tmu_) : std::unique_lock<std::mutex>();
}

// --- rendezvous and collectives (mode-dispatched) ---

void BlockExec::rendezvous(unsigned tid, St at) {
  if (!threaded_) {
    park(tid, at);
    return;
  }
  std::unique_lock lk(tmu_);
  const std::uint64_t& gen =
      at == St::kAtBarrier ? block_gen_ : warp_gen_[tid / warp_size_];
  const std::uint64_t seen = gen;
  set_state(tid, at);
  check_deadlock_locked();
  tcv_.wait(lk, [&] { return abort_ || gen != seen; });
  if (abort_) throw AbortLane{};
}

void BlockExec::syncthreads(unsigned tid) {
  check(sync_enabled_,
        "vgpu: __syncthreads used in a launch without needs_sync "
        "(set LaunchConfig::needs_sync = true)");
  rendezvous(tid, St::kAtBarrier);
}

void BlockExec::warp_rendezvous(unsigned tid) {
  check(sync_enabled_,
        "vgpu: wavefront collective used in a launch without needs_sync "
        "(set LaunchConfig::needs_sync = true)");
  rendezvous(tid, St::kAtWarpSync);
}

std::uint64_t BlockExec::exchange(unsigned tid, std::uint64_t bits,
                                  unsigned src_lane) {
  {
    auto lk = lock_if_threaded();
    fibers_[tid].slot = bits;
  }
  warp_rendezvous(tid);  // publish complete across the warp
  std::uint64_t out = bits;  // own value if the source lane is dead/missing
  {
    auto lk = lock_if_threaded();
    const auto [lo, hi] = warp_range(tid);
    const unsigned src_tid = lo + src_lane;
    if (src_tid < hi && fibers_[src_tid].st != St::kDone) {
      out = fibers_[src_tid].slot;
    }
  }
  warp_rendezvous(tid);  // everyone has read; slots may be reused
  return out;
}

std::uint64_t BlockExec::ballot(unsigned tid, bool pred) {
  {
    auto lk = lock_if_threaded();
    fibers_[tid].slot = pred ? 1 : 0;
  }
  warp_rendezvous(tid);
  std::uint64_t mask = 0;
  {
    auto lk = lock_if_threaded();
    const auto [lo, hi] = warp_range(tid);
    for (unsigned t = lo; t < hi; ++t) {
      if (fibers_[t].st != St::kDone && fibers_[t].slot) {
        mask |= std::uint64_t{1} << (t - lo);
      }
    }
  }
  warp_rendezvous(tid);
  return mask;
}

}  // namespace qhip::vgpu

// Out-of-line KernelCtx members that need the BlockExec definition.
namespace qhip::vgpu {

void KernelCtx::syncthreads() { exec_->syncthreads(thread_idx_); }

std::uint64_t KernelCtx::ballot(bool pred) {
  return exec_->ballot(thread_idx_, pred);
}

std::uint64_t KernelCtx::exchange_raw(std::uint64_t bits, unsigned src_lane) {
  return exec_->exchange(thread_idx_, bits, src_lane);
}

}  // namespace qhip::vgpu
