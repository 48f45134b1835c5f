// Cooperative SIMT block executor.
//
// Executes one GPU thread block at a time. Three modes, chosen per launch:
//
//  * direct — threads run sequentially to completion on the calling host
//    thread. Zero scheduling overhead; any use of __syncthreads or wavefront
//    collectives is an error. Matches kernels like ApplyGateH_Kernel, which
//    need no intra-block communication.
//
//  * fiber — every block thread is a fiber on its own 128 KiB mmap'd stack
//    with a PROT_NONE guard page below it, so an overflow faults instead of
//    corrupting the heap; untouched stack pages never become resident. A
//    switch is a short x86-64 routine that saves the callee-saved registers,
//    MXCSR and the x87 control word and swaps rsp — no signal-mask syscall.
//    Runnable fibers run in FIFO order: a parking fiber hands off directly
//    to the next one, and control returns to the scheduler only when none
//    is ready. __syncthreads is a block-wide rendezvous and warp
//    collectives are publish/read exchanges with warp-scoped rendezvous.
//    Counters of live lanes, lanes at the barrier,
//    and live and waiting lanes per warp make every arrival O(1): a
//    rendezvous is released only when its count completes. Matches
//    ApplyGateL_Kernel (shared-memory staging) and the reduction kernels
//    (warp shuffles). This is the default for needs_sync launches.
//
//  * threaded — every block thread is a real host thread and the rendezvous
//    are mutex/condvar barriers over the same counters. ThreadSanitizer
//    builds use this instead of fibers: libtsan's fiber API is broken in
//    GCC 12 (SEGV inside __tsan_create_fiber), and TSan cannot follow a
//    stack switch without it. Real threads are primitives TSan models
//    natively, so kernel shared-memory use gets genuine race checking.
//    Non-x86-64 targets, which lack the switch routine, use it too. Opt in
//    elsewhere with QHIP_BLOCK_EXEC=threads.
//
// A BlockExec instance is reused across blocks and launches; fiber stacks
// are mapped once and unmapped by the destructor. Instances are not
// thread-safe — the device keeps one per host worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/vgpu/kernel_ctx.h"

namespace qhip::vgpu {

using KernelFn = std::function<void(KernelCtx&)>;

class BlockExec {
 public:
  // `max_threads` bounds block_dim; `max_shared` bounds dynamic shared size.
  BlockExec(unsigned max_threads, std::size_t max_shared, unsigned warp_size);
  ~BlockExec();

  BlockExec(const BlockExec&) = delete;
  BlockExec& operator=(const BlockExec&) = delete;

  // Runs block `block_idx` of a grid with `grid_dim` blocks.
  void run_block(const KernelFn& kernel, unsigned block_idx, unsigned block_dim,
                 unsigned grid_dim, std::size_t shared_bytes, bool needs_sync);

  // --- called by KernelCtx from inside a running block thread ---
  void syncthreads(unsigned tid);
  std::uint64_t exchange(unsigned tid, std::uint64_t bits, unsigned src_lane);
  std::uint64_t ballot(unsigned tid, bool pred);

  unsigned warp_size() const { return warp_size_; }

 private:
  enum class St : std::uint8_t { kRunnable, kAtBarrier, kAtWarpSync, kDone };

  // Unmaps a fiber stack (and its guard page) given its lowest usable byte.
  struct StackUnmap {
    void operator()(std::byte* lo) const noexcept;
  };

  struct Fiber {
    std::unique_ptr<std::byte, StackUnmap> stack;  // mapped on first use
    void* sp = nullptr;          // saved stack pointer while switched out
    void* fake_stack = nullptr;  // ASan fake-stack handle across switches
    St st = St::kRunnable;
    std::uint64_t slot = 0;      // collective publish slot
  };

  [[noreturn]] static void fiber_entry();
  void fiber_main(unsigned tid);
  // Fiber mode. resume: scheduler -> lane `tid`. switch_out: lane `tid`
  // (parked or exiting) -> the next runnable lane, or the scheduler when
  // none is ready or the run failed. park: set_state, then switch_out.
  void resume(unsigned tid);
  void switch_out(unsigned tid, bool exiting);
  void park(unsigned tid, St at);
  void rendezvous(unsigned tid, St at);
  void warp_rendezvous(unsigned tid);
  void run_block_direct(const KernelFn& kernel, unsigned block_idx,
                        unsigned block_dim, unsigned grid_dim,
                        std::size_t shared_bytes);
  void run_block_fibers(const KernelFn& kernel, unsigned block_idx,
                        unsigned block_dim, unsigned grid_dim,
                        std::size_t shared_bytes);
  void run_block_threads(const KernelFn& kernel, unsigned block_idx,
                         unsigned block_dim, unsigned grid_dim,
                         std::size_t shared_bytes);
  void lane_thread_main(unsigned tid);
  // Resets the per-run state and counters with every lane runnable.
  void begin_sync_run(const KernelFn& kernel, unsigned block_idx,
                      unsigned block_dim, unsigned grid_dim,
                      std::size_t shared_bytes);
  // Moves lane `tid` to `s`, keeping the counters in step, and releases the
  // block barrier or the lane's warp when this move completes its count.
  // Threaded mode calls it with tmu_ held.
  void set_state(unsigned tid, St s);
  // Makes the lanes of [lo, hi) parked at `waiting_at` runnable: queued in
  // fiber mode, woken in threaded mode.
  void release(St waiting_at, unsigned lo, unsigned hi);
  void push_ready(unsigned tid);
  unsigned pop_ready();
  // Threaded mode, tmu_ held: if every live lane is parked, nothing can
  // ever release them — record the deadlock and unwind everyone.
  void check_deadlock_locked();
  std::exception_ptr deadlock_error() const;
  std::unique_lock<std::mutex> lock_if_threaded();
  std::pair<unsigned, unsigned> warp_range(unsigned tid) const;
  void rethrow_run_error();

  unsigned max_threads_;
  unsigned warp_size_;
  std::vector<Fiber> fibers_;
  std::vector<std::byte> shared_;

  // Per-run state.
  const KernelFn* kernel_ = nullptr;
  unsigned block_idx_ = 0;
  unsigned block_dim_ = 0;
  unsigned grid_dim_ = 0;
  std::size_t shared_bytes_ = 0;
  bool sync_enabled_ = false;  // collectives legal (fiber or threaded run)
  bool threaded_ = false;      // current sync run uses real threads
  std::exception_ptr error_;

  // Rendezvous counters (both sync modes; threaded mode guards them with
  // tmu_). A lane at a rendezvous counts in `waiting_` and in its kind.
  unsigned live_ = 0;        // lanes not yet exited
  unsigned waiting_ = 0;     // lanes parked at any rendezvous
  unsigned at_barrier_ = 0;  // lanes parked at the block barrier
  std::vector<unsigned> warp_live_;  // per warp: lanes not yet exited
  std::vector<unsigned> warp_wait_;  // per warp: lanes at the warp sync

  // Fiber mode: FIFO ring of runnable lanes (each lane at most once), the
  // lane now running, and the scheduler's saved stack pointer and ASan
  // stack bounds.
  std::vector<unsigned> ready_;
  unsigned ready_head_ = 0;
  unsigned ready_count_ = 0;
  unsigned current_ = 0;
  bool from_scheduler_ = false;  // current_ was entered from the scheduler
  void* sched_sp_ = nullptr;
  void* sched_fake_stack_ = nullptr;
  const void* sched_stack_lo_ = nullptr;
  std::size_t sched_stack_bytes_ = 0;

  // Threaded-mode wakeups (guarded by tmu_). Generation counters implement
  // the barriers: a waiter captures the counter, then sleeps until it moves.
  std::mutex tmu_;
  std::condition_variable tcv_;
  bool abort_ = false;  // a lane failed or deadlocked; everyone unwinds
  std::uint64_t block_gen_ = 0;
  std::vector<std::uint64_t> warp_gen_;
};

}  // namespace qhip::vgpu
