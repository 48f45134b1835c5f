// In-process message-passing communicator (MPI-flavoured).
//
// The paper situates qsim among MPI-based HPC simulators (Intel-QS, QuEST,
// Qiskit — §1); this layer provides the message-passing model those
// simulators distribute over, with ranks backed by threads so the
// distributed state-vector algorithms (src/dist/simulator_dist.h) run and
// test on a single host. The API is the MPI subset the simulator needs:
// blocking send / recv / sendrecv (tagged, message semantics — one recv
// matches one send of the same (src, tag) in order), the non-blocking
// isend / irecv / wait triple used by the chunked slot-swap protocol,
// probe, barrier, and allreduce (scalar and vector).
//
// Determinism: message matching is per (src, dst, tag) FIFO, and the
// collectives are rank-ordered, so SPMD programs behave identically run to
// run regardless of thread scheduling.
//
// Tags are validated against kMaxTag: the mailbox key packs (src, dst, tag)
// into 64 bits with 20 bits for the tag, so an unchecked tag >= 2^20 used
// to bleed into the dst field and silently cross-wire two unrelated
// channels (the pre-fix swap protocol's ever-incrementing per-swap tags
// were a slow fuse on exactly this).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

#include "src/base/error.h"
#include "src/base/types.h"

namespace qhip::dist {

class World;

// Largest valid message tag: the mailbox key gives tags 20 bits.
inline constexpr int kMaxTag = (1 << 20) - 1;

// Per-rank communicator handle, valid inside run_spmd's body.
class Comm {
 public:
  // Handle for a non-blocking operation; complete it with Comm::wait().
  // Default-constructed (or already-completed) requests wait() as no-ops.
  class Request {
   public:
    Request() = default;
    bool pending() const { return kind_ != Kind::kNone; }

   private:
    friend class Comm;
    enum class Kind { kNone, kRecv };
    Kind kind_ = Kind::kNone;
    int peer_ = 0;
    int tag_ = 0;
    std::uint64_t ticket_ = 0;
    void* data_ = nullptr;
    std::size_t bytes_ = 0;
  };

  int rank() const { return rank_; }
  int size() const;

  // Blocking tagged point-to-point. recv must request exactly the byte
  // count that was sent (mismatch throws — catches protocol bugs).
  void send(int dst, int tag, const void* data, std::size_t bytes);
  void recv(int src, int tag, void* data, std::size_t bytes);

  // Blocks until a message from (src, tag) is queued and returns its byte
  // size without consuming it. Lets receivers size their buffers to the
  // incoming message instead of guessing.
  std::size_t probe(int src, int tag);

  // Non-blocking ops. isend is eager-buffered (the message is copied into
  // the mailbox before returning, like MPI's eager protocol), so the
  // returned request is already complete and `data` is reusable
  // immediately. irecv matches in post order: it completes immediately only
  // when a message is queued and no earlier receive on the same (src, tag)
  // channel is still pending; otherwise it takes a ticket and the receive
  // is performed by wait(). Waits on the same channel must happen in
  // irecv-post order (FIFO matching).
  Request isend(int dst, int tag, const void* data, std::size_t bytes);
  Request irecv(int src, int tag, void* data, std::size_t bytes);
  void wait(Request& r);

  // Bidirectional exchange with `peer` (deadlock-free: sends are buffered).
  void sendrecv(int peer, int tag, const void* send_buf, void* recv_buf,
                std::size_t bytes);

  template <typename T>
  void send_vec(int dst, int tag, const std::vector<T>& v) {
    send(dst, tag, v.data(), v.size() * sizeof(T));
  }
  // Resizes *v to the incoming message (probe + recv), so an unsized vector
  // is valid input. The message must be a whole number of T's.
  template <typename T>
  void recv_vec(int src, int tag, std::vector<T>* v) {
    const std::size_t bytes = probe(src, tag);
    check(bytes % sizeof(T) == 0,
          "recv_vec: message size is not a multiple of the element size");
    v->resize(bytes / sizeof(T));
    recv(src, tag, v->data(), bytes);
  }

  // Collectives (all ranks must call).
  void barrier();
  double allreduce_sum(double v);
  cplx64 allreduce_sum(cplx64 v);
  // Element-wise sum across ranks, accumulated in rank order on every rank
  // (deterministic). All ranks must pass the same length.
  std::vector<double> allreduce_sum(const std::vector<double>& v);
  // Every rank contributes `v`; all ranks receive the rank-indexed vector.
  std::vector<double> allgather(double v);

 private:
  friend class World;
  friend void run_spmd(int, const std::function<void(Comm&)>&);
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
};

// Runs `body(comm)` on `num_ranks` threads, one rank each. Exceptions from
// any rank are rethrown on the caller (first one wins) after all ranks
// finish or abort.
void run_spmd(int num_ranks, const std::function<void(Comm&)>& body);

}  // namespace qhip::dist
