#ifndef PUMI_DIST_NETWORK_HPP
#define PUMI_DIST_NETWORK_HPP

/// \file network.hpp
/// \brief Part-to-part message transport with architecture awareness.
///
/// All distributed-mesh operations (migration, ghosting, ParMA diffusion)
/// communicate exclusively through this transport in bulk-synchronous
/// phases: every part posts messages, then deliverAll() hands each message
/// to the receiving part's handler in a deterministic order. The machine
/// model maps parts to (node, core); traffic is accounted as on-node
/// (shared memory in the paper's hybrid design, Figs. 5-6) or off-node
/// (explicit message passing), which the two-level benches report.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <map>

#include "pcu/arq.hpp"
#include "pcu/buffer.hpp"
#include "pcu/comm.hpp"
#include "pcu/error.hpp"
#include "pcu/failure.hpp"
#include "pcu/faults.hpp"
#include "pcu/machine.hpp"
#include "pcu/trace.hpp"

#include "common/flatmap.hpp"
#include "dist/pool.hpp"
#include "dist/types.hpp"

namespace dist {

/// Pseudo-tag identifying the part-to-part transport in fault-injection
/// decisions and error reports (decorrelates its deterministic fault
/// stream from same-numbered pcu::Comm channels).
inline constexpr int kNetChannelTag = 1 << 20;

/// Maps parts onto the machine: part p runs on core (p % coresTotal) by
/// default (block layout over nodes is applied by the caller choosing the
/// machine shape).
class PartMap {
 public:
  PartMap() = default;
  PartMap(int parts, pcu::Machine machine)
      : parts_(parts), machine_(machine) {}

  [[nodiscard]] int parts() const { return parts_; }
  [[nodiscard]] const pcu::Machine& machine() const { return machine_; }

  /// Core rank hosting part p. By default parts are laid out block-wise so
  /// consecutive parts share nodes (matching the hybrid partitioning in
  /// Fig. 5); an explicit mapping (setPartRanks) overrides this, e.g. to
  /// pin locally split subparts onto their parent part's node.
  [[nodiscard]] int rankOf(PartId p) const {
    if (static_cast<std::size_t>(p) < explicit_ranks_.size())
      return explicit_ranks_[static_cast<std::size_t>(p)];
    const int per_rank =
        (parts_ + machine_.totalCores() - 1) / machine_.totalCores();
    return static_cast<int>(p) / per_rank;
  }

  /// Pin parts to ranks explicitly (one entry per part; parts beyond the
  /// vector fall back to the block layout).
  void setPartRanks(std::vector<int> ranks) {
    explicit_ranks_ = std::move(ranks);
  }

  /// Grow the part count (dynamic parts; see PartedMesh::addPart). Existing
  /// part->rank assignments may shift, which only affects traffic
  /// accounting, not correctness.
  void setParts(int parts) { parts_ = parts; }
  /// Replace the machine model (elastic scale-out: newly joined ranks give
  /// the same parts more cores to live on). Explicit part->rank pins are
  /// kept; block-layout fallback assignments may shift, which only affects
  /// traffic accounting.
  void setMachine(pcu::Machine machine) { machine_ = machine; }
  [[nodiscard]] int nodeOf(PartId p) const {
    return machine_.nodeOf(rankOf(p));
  }
  [[nodiscard]] bool sameNode(PartId a, PartId b) const {
    return nodeOf(a) == nodeOf(b);
  }

 private:
  int parts_ = 1;
  pcu::Machine machine_ = pcu::Machine();
  std::vector<int> explicit_ranks_;
};

/// Bulk-synchronous message transport between parts.
///
/// Execution model (the paper's hybrid mode, Sec. II-D): the per-part
/// loops of the distributed operations run as forEachPart tasks on one
/// process-wide worker pool, one task per part, and deliverAll runs each
/// destination part's handlers as one such task. A task writes only its
/// own part's state, and its sends are staged per part and merged in part
/// order, so every message, stat, handle and result is the same at every
/// width (setDeliveryThreads), width 1 included.
///
/// Posting is cheap and delivery is batched: the next phase boundary
/// coalesces every payload bound for the same (from, to) pair into one
/// *physical* message — a segment of length-prefixed sub-messages, split
/// back into individual handler calls on delivery. Stats follow the same
/// contract as pcu::CommStats: logical/on-node/off-node counters always
/// count the payloads the operation posted; `physical_*` counts coalesced
/// segments.
///
/// While a fault plan or checksum-verify mode is active
/// (pcu::faults::framingEnabled()) every physical message is framed with a
/// per-(from,to)-channel sequence number and payload CRC — one seq/CRC per
/// coalesced segment. Delivery then verifies each destination's batch
/// before any handler runs: corruption, duplication and loss are surfaced
/// as structured pcu::Error values, and per-channel FIFO order is restored
/// under injected reordering. Because the transport is bulk-synchronous,
/// loss is detected deterministically at the phase boundary (a sequence gap
/// against the sender's counter) — no timeout needed at this layer.
///
/// With reliable delivery on (pcu::arq::enabled()) the phase boundary
/// *recovers* instead of aborting: every framed segment keeps a clean copy
/// in a resend buffer until its receiver verifies it, and verification
/// re-fetches corrupt segments, silently drops duplicates, and pulls every
/// missing sequence number from the buffer — each retransmission attempt
/// re-running the fault plan's decision under an attempt salt, so only a
/// permanent fault exhausts the bounded budget and surfaces as
/// pcu::Error(kMessageLost). The transactional layer bumps a fault epoch
/// between operation replays (bumpFaultEpoch) so a retried operation does
/// not deterministically replay the exact faults that aborted it.
class Network {
 public:
  explicit Network(PartMap map)
      : map_(map), boxes_(map.parts()), recv_seq_(boxes_.size()) {}

  [[nodiscard]] const PartMap& partMap() const { return map_; }
  [[nodiscard]] int parts() const { return map_.parts(); }

  /// Post a message; it is delivered at the next deliverAll(). A send made
  /// inside a forEachPart task (a deliverAll handler included) is staged
  /// with that task's part and merged in part order when the loop ends, so
  /// the transport sees the sends in the order a serial loop makes them.
  /// Sends from any other thread stage under the transport mutex.
  void send(PartId from, PartId to, pcu::OutBuffer buf) {
    if (pcu::trace::enabled())
      pcu::trace::sendAs(from, to, static_cast<std::int64_t>(buf.size()),
                         "net");
    auto& slot = tlsSlot();
    if (slot.net == this) {
      slot.stage->push_back(StagedMsg{from, to, std::move(buf).take()});
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    stageLocked(from, to, std::move(buf).take());
  }

  /// Enable (default) or disable per-(from,to) coalescing of staged
  /// payloads into one physical message. With coalescing off each payload
  /// travels as its own physical message (physical == logical), which is
  /// the A/B baseline the benches and equivalence tests compare against.
  void setCoalescing(bool on) { coalesce_ = on; }
  [[nodiscard]] bool coalescing() const { return coalesce_; }

  /// True when any message is pending (staged or already flushed).
  [[nodiscard]] bool pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!staged_groups_.empty()) return true;
    for (const auto& box : boxes_)
      if (!box.empty()) return true;
    return false;
  }

  /// Run fn(p) for every part p on the process-wide worker pool
  /// (dist/pool.hpp) with deliveryThreads() threads, and return once every
  /// part is done. fn may write only part p's state; its sends are merged
  /// in part order. The lowest part's exception is rethrown after all
  /// parts have run.
  void forEachPart(const std::function<void(PartId)>& fn) {
    runParts(static_cast<std::size_t>(parts()), fn);
  }

  /// Deliver every pending message: handler(to, from, body). Destination
  /// parts run as forEachPart tasks; each gets its messages in posting
  /// order, grouped by channel in the order the channels were first used.
  /// Messages posted by the handler are queued for the next deliverAll.
  /// Delivery is identical at every width, message for message.
  void deliverAll(
      const std::function<void(PartId to, PartId from, pcu::InBuffer body)>&
          handler) {
    auto taken = takeVerified();
    runParts(taken.size(), [&](PartId to) {
      deliverTo(to, taken[static_cast<std::size_t>(to)], handler);
    });
  }

  /// Cap the threads that forEachPart and deliverAll use (n <= 1: run every
  /// loop on the calling thread). Uncapped by default. The width changes
  /// only the wall time: sends, stats, handles and every result are the
  /// same at any width.
  void setDeliveryThreads(int n) { thread_cap_ = std::max(n, 1); }
  /// The width forEachPart uses: min(hardware threads, parts, the cap).
  [[nodiscard]] int deliveryThreads() const {
    return std::max(1, std::min({pool::size(), parts(), thread_cap_}));
  }

  [[nodiscard]] const pcu::CommStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

  /// Add one part (empty mailbox) to the transport.
  void addPart() {
    boxes_.emplace_back();
    recv_seq_.emplace_back();
    map_.setParts(static_cast<int>(boxes_.size()));
  }

  /// Forget every pending message (staged or flushed), all channel
  /// sequence state and the reliable-mode resend buffer. Used by the
  /// transactional abort path (PartedMesh) so a rolled-back operation
  /// leaves the transport exactly as if it had never run.
  void resetTransport() {
    std::lock_guard<std::mutex> lock(mutex_);
    staged_groups_.clear();
    group_of_.clear();
    last_key_ = kNoKey;
    for (auto& box : boxes_) box.clear();
    send_seq_.clear();
    for (auto& chan : recv_seq_) chan.clear();
    resend_.clear();
  }

  /// Advance the fault-decision epoch. resetTransport() clears the channel
  /// sequence counters, so a replayed operation would re-run the exact
  /// (src, dst, tag, seq) decision stream that just aborted it; the epoch
  /// salts every post-replay decision so retries see fresh (still
  /// deterministic) draws. Epoch 0 reproduces the historical stream
  /// bit-for-bit.
  void bumpFaultEpoch() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++fault_epoch_;
  }
  [[nodiscard]] std::uint64_t faultEpoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fault_epoch_;
  }

  /// Pin parts to ranks explicitly (see PartMap::setPartRanks).
  void setPartRanks(std::vector<int> ranks) {
    map_.setPartRanks(std::move(ranks));
  }

  /// --- rank-failure tolerance ------------------------------------------
  /// Ranks (of the part map's machine) declared dead by a kill=/hang= fault.
  /// Deliberately NOT cleared by resetTransport(): a transactional rollback
  /// must not resurrect a dead rank — only re-pinning its parts onto
  /// survivors (failover::evacuate) lifts the poison gate.
  [[nodiscard]] std::vector<int> deadRanks() const {
    return {dead_ranks_.begin(), dead_ranks_.end()};
  }

  /// --- elastic scale-out ------------------------------------------------
  /// Newcomer ranks announced by a consumed join=K@P token and not yet
  /// admitted. A join is not a fault: the boundary that consumes it keeps
  /// delivering (the in-flight operation completes untouched) and the
  /// caller admits the pending ranks at the next quiescent point
  /// (dist::elastic / parma's join path).
  [[nodiscard]] int pendingJoin() const { return pending_join_; }
  /// Consume the pending joiner count (returns it, then zeroes it).
  int takePendingJoin() {
    const int k = pending_join_;
    pending_join_ = 0;
    return k;
  }
  /// Grow the machine by `k` newly joined ranks: the dist-layer analogue of
  /// pcu::Comm::grow's dense renumbering — existing ranks keep their
  /// numbers, newcomers take totalCores()..totalCores()+k-1 on a flat
  /// topology. Existing per-channel ARQ/coalescing state is untouched
  /// (channels are keyed by part, not rank); channels to parts later pinned
  /// on the newcomers start from sequence zero by construction.
  void growRanks(int k) {
    std::lock_guard<std::mutex> lock(mutex_);
    const int total = map_.machine().totalCores();
    map_.setMachine(pcu::Machine::flat(total + k));
    pcu::failure::noteGrow(k);
  }

 private:
  /// One physical (possibly coalesced) message queued for delivery. In the
  /// fast path (no fault framing) the logical payloads ride in `bodies`,
  /// moved end to end with zero copies; while framing is active they are
  /// serialized into `bytes` as one contiguous length-prefixed segment so a
  /// single seq/CRC covers the whole physical message.
  struct Pending {
    PartId from;
    std::vector<std::byte> bytes;
    std::vector<std::vector<std::byte>> bodies;
    std::uint64_t seq = 0;
  };

  /// One logical payload as posted by send() inside a forEachPart task,
  /// before it is merged into the staged groups.
  struct StagedMsg {
    PartId from;
    PartId to;
    std::vector<std::byte> bytes;
  };

  /// One open coalescing group: every payload staged for (from, to) since
  /// the last flush, in posting order.
  struct Group {
    PartId from = 0;
    PartId to = 0;
    std::vector<std::vector<std::byte>> bodies;
    std::uint64_t logical_bytes = 0;
  };

  /// Thread-local binding of the running forEachPart task to its part's
  /// staging vector.
  struct TlsSlot {
    const Network* net = nullptr;
    std::vector<StagedMsg>* stage = nullptr;
  };
  static TlsSlot& tlsSlot() {
    thread_local TlsSlot slot;
    return slot;
  }
  class TlsGuard {
   public:
    TlsGuard(const Network* net, std::vector<StagedMsg>* stage)
        : saved_(tlsSlot()) {
      tlsSlot() = TlsSlot{net, stage};
    }
    ~TlsGuard() { tlsSlot() = saved_; }
    TlsGuard(const TlsGuard&) = delete;
    TlsGuard& operator=(const TlsGuard&) = delete;

   private:
    TlsSlot saved_;
  };

  /// forEachPart over `n` parts: each task stages its sends in its own
  /// vector, and the vectors are merged in part order once all have run
  /// (into the enclosing task's stage when the loop is nested in one).
  void runParts(std::size_t n, const std::function<void(PartId)>& fn) {
    std::vector<std::vector<StagedMsg>> stages;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stages.swap(spare_stages_);  // a nested loop finds none and allocates
    }
    stages.resize(n);
    std::exception_ptr error;
    try {
      pool::run(n, deliveryThreads(), [&](std::size_t p) {
        TlsGuard guard(this, &stages[p]);
        fn(static_cast<PartId>(p));
      });
    } catch (...) {
      error = std::current_exception();
    }
    auto& slot = tlsSlot();
    if (slot.net == this) {
      for (auto& stage : stages)
        for (auto& m : stage) slot.stage->push_back(std::move(m));
    } else {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& stage : stages)
        for (auto& m : stage) stageLocked(m.from, m.to, std::move(m.bytes));
    }
    for (auto& stage : stages) stage.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stages.size() > spare_stages_.size()) spare_stages_.swap(stages);
    }
    if (error) std::rethrow_exception(error);
  }

  [[nodiscard]] static std::uint64_t channelKey(PartId from, PartId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  /// Salt parameter for fault decisions: epoch 0 / attempt 0 degenerates
  /// to the unsalted historical stream (arq::saltSeq(seq, 0) == seq), so
  /// every seeded test written before reliability existed replays
  /// bit-identically. Retransmission attempts occupy [1, budget]; epochs
  /// shift by 2^20 to stay clear of them. Caller holds mutex_.
  [[nodiscard]] std::uint64_t epochSalt(std::uint64_t attempt) const {
    return fault_epoch_ * (std::uint64_t{1} << 20) + attempt;
  }

  /// Stage one logical payload, coalescing it into the open (from, to)
  /// group — created on first appearance, so groups keep first-appearance
  /// order and payloads within a group keep posting order. The payload is
  /// moved straight into its group (no intermediate queue); a one-entry
  /// channel cache skips the map lookup for the common case of consecutive
  /// sends to the same destination. Caller holds mutex_.
  void stageLocked(PartId from, PartId to, std::vector<std::byte> bytes) {
    std::size_t gi;
    if (coalesce_) {
      const std::uint64_t key = channelKey(from, to);
      if (key == last_key_) {
        gi = last_group_;
      } else {
        auto [it, fresh] = group_of_.try_emplace(key, staged_groups_.size());
        if (fresh) {
          staged_groups_.emplace_back();
          staged_groups_.back().from = from;
          staged_groups_.back().to = to;
        }
        gi = it->second;
        last_key_ = key;
        last_group_ = gi;
      }
    } else {
      gi = staged_groups_.size();
      staged_groups_.emplace_back();
      staged_groups_.back().from = from;
      staged_groups_.back().to = to;
    }
    auto& g = staged_groups_[gi];
    g.logical_bytes += bytes.size();
    g.bodies.push_back(std::move(bytes));
  }

  /// Post every staged group as one physical message (stats, framing, and
  /// fault injection apply per physical message). Caller holds mutex_.
  void flushStageLocked() {
    if (staged_groups_.empty()) return;
    const bool framing = pcu::faults::framingEnabled();
    for (auto& g : staged_groups_)
      postSegmentLocked(g.from, g.to, std::move(g.bodies), g.logical_bytes,
                        framing);
    staged_groups_.clear();
    group_of_.clear();
    last_key_ = kNoKey;
  }

  /// Account and enqueue one physical (coalesced) message. Caller holds
  /// mutex_.
  void postSegmentLocked(PartId from, PartId to,
                         std::vector<std::vector<std::byte>> bodies,
                         std::uint64_t logical_bytes, bool framing) {
    // Logical counters account what the operations posted; physical
    // counters account what crosses the transport (see class comment). The
    // physical byte size is the segment form either way: payload bytes plus
    // one u32 length prefix per logical sub-message.
    const auto logical_count = static_cast<std::uint64_t>(bodies.size());
    stats_.messages_sent += logical_count;
    stats_.bytes_sent += logical_bytes;
    stats_.physical_messages += 1;
    stats_.physical_bytes += logical_bytes + sizeof(std::uint32_t) * logical_count;
    if (map_.sameNode(from, to)) {
      stats_.on_node_messages += logical_count;
      stats_.on_node_bytes += logical_bytes;
    } else {
      stats_.off_node_messages += logical_count;
      stats_.off_node_bytes += logical_bytes;
    }
    auto& box = boxes_[static_cast<std::size_t>(to)];
    if (!framing) {
      // Fast path: logical payloads are moved, never re-serialized.
      box.push_back(Pending{from, {}, std::move(bodies), 0});
      return;
    }
    // Framed path: one contiguous segment so a single seq/CRC covers the
    // whole physical message.
    pcu::OutBuffer segment;
    segment.reserve(static_cast<std::size_t>(logical_bytes) +
                    sizeof(std::uint32_t) * bodies.size());
    for (const auto& b : bodies) {
      segment.pack<std::uint32_t>(static_cast<std::uint32_t>(b.size()));
      segment.packBytes(b.data(), b.size());
    }
    bodies.clear();
    const std::uint64_t seq = send_seq_[channelKey(from, to)]++;
    auto framed = pcu::faults::frame(seq, std::move(segment).take());
    if (pcu::arq::enabled())
      // Keep the clean framed segment until its receiver verifies it: the
      // phase-boundary recovery pulls retransmissions from here. One copy,
      // one CRC, whole coalesced segments — never re-split for resend.
      resend_[channelKey(from, to)][seq] = framed;
    switch (pcu::faults::decide(from, to, kNetChannelTag,
                                pcu::arq::saltSeq(seq, epochSalt(0)))) {
      case pcu::faults::Action::kDeliver:
        break;
      case pcu::faults::Action::kCorrupt:
        pcu::faults::corruptFrame(framed, from, to, kNetChannelTag, seq);
        break;
      case pcu::faults::Action::kDrop:
        return;  // detected at delivery as a sequence gap
      case pcu::faults::Action::kDuplicate:
        box.push_back(Pending{from, std::vector<std::byte>(framed), {}, seq});
        break;
      case pcu::faults::Action::kDelay:
        // Deliver behind the message currently at the back of the box (a
        // per-channel reorder when that message shares the channel).
        if (!box.empty()) {
          box.insert(box.end() - 1,
                     Pending{from, std::move(framed), {}, seq});
          return;
        }
        break;
    }
    box.push_back(Pending{from, std::move(framed), {}, seq});
  }

  /// Flush the stage, swap out the pending boxes and, while framing is
  /// active, verify every destination's batch before any handler runs.
  /// Verification is single-threaded and happens up front, so a bad batch
  /// aborts the phase deterministically with no handler side effects.
  /// Every phase on a part map that still pins a part to a dead rank fails:
  /// the dead rank's parts are unreachable until evacuation re-owns them.
  void checkDeadRanks() const {
    if (dead_ranks_.empty()) return;
    for (PartId p = 0; p < parts(); ++p)
      if (dead_ranks_.count(map_.rankOf(p)) > 0)
        throw pcu::Error(pcu::ErrorCode::kRankFailed, static_cast<int>(p),
                         map_.rankOf(p), kNetChannelTag,
                         "part " + std::to_string(p) +
                             " is pinned to dead rank " +
                             std::to_string(map_.rankOf(p)) +
                             "; evacuate before communicating");
  }

  /// Phase-boundary rank-fault hook (the dist-layer analogue of
  /// pcu::Comm::rankFaultPoint): enforce the dead-rank gate, then consume a
  /// scheduled kill=/hang= fault whose phase index matches the number of
  /// boundaries passed under the current plan. A hang first sleeps out the
  /// heartbeat deadline — in this single-driver transport the silence of a
  /// hung rank is only observable as that detection latency — then both
  /// kinds declare the rank dead and abort the phase with kRankFailed.
  void maybeFireRankFault() {
    checkDeadRanks();
    if (!pcu::faults::hasPhaseEvent()) return;
    const pcu::faults::FaultPlan plan = pcu::faults::plan();
    // Phase indices are per installed plan: re-zero the counter whenever
    // the scheduled phase events (rank faults or join) change identity.
    std::uint64_t sig =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
             plan.kill.rank * 31 + plan.kill.phase))
         << 32) |
        static_cast<std::uint32_t>(plan.hang.rank * 31 + plan.hang.phase);
    sig ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               plan.join.count * 131 + plan.join.phase)) *
           0x9e3779b97f4a7c15ull;
    if (sig != rank_fault_sig_ || !rank_fault_seen_) {
      rank_fault_sig_ = sig;
      rank_fault_seen_ = true;
      phase_counter_ = 0;
    }
    const std::uint64_t phase = phase_counter_++;
    // Record the join knock before any fault can abort this phase: scale-out
    // must not be forgotten because the same boundary also killed a rank.
    if (plan.join.scheduled()) {
      const int joiners = pcu::faults::fireJoin(phase);
      if (joiners > 0) {
        pending_join_ += joiners;
        if (pcu::trace::enabled())
          pcu::trace::counter("net:pending_join",
                              static_cast<std::int64_t>(pending_join_));
      }
    }
    if (plan.kill.scheduled() && pcu::faults::fireKill(plan.kill.rank, phase))
      declareRankDead(plan.kill.rank, /*hang=*/false, phase);
    if (plan.hang.scheduled() && pcu::faults::fireHang(plan.hang.rank, phase))
      declareRankDead(plan.hang.rank, /*hang=*/true, phase);
  }

  [[noreturn]] void declareRankDead(int rank, bool hang, std::uint64_t phase) {
    std::int64_t latency_us = 0;
    if (hang) {
      const int dl = std::max(pcu::faults::deadlineMs(), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(dl));
      latency_us = static_cast<std::int64_t>(dl) * 1000;
    }
    dead_ranks_.insert(rank);
    pcu::failure::noteSuspicion(latency_us);
    throw pcu::Error(pcu::ErrorCode::kRankFailed, -1, rank, kNetChannelTag,
                     "rank " + std::to_string(rank) +
                         (hang ? " went silent" : " died") +
                         " at phase boundary " + std::to_string(phase));
  }

  std::vector<std::vector<Pending>> takeVerified() {
    maybeFireRankFault();
    std::vector<std::vector<Pending>> taken(boxes_.size());
    const bool framed = pcu::faults::framingEnabled();
    std::vector<std::unordered_map<PartId, std::uint64_t>> posted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flushStageLocked();
      taken.swap(boxes_);
      if (framed) {
        // Snapshot the per-channel send counters: bulk synchrony means
        // everything posted before this point must be in `taken`, so a
        // receiver-side sequence short of the snapshot is a lost message.
        posted.resize(taken.size());
        for (const auto& [key, count] : send_seq_) {
          const auto to = static_cast<std::size_t>(
              static_cast<std::uint32_t>(key & 0xffffffffu));
          if (to < posted.size())
            posted[to][static_cast<PartId>(key >> 32)] = count;
        }
      }
    }
    if (framed)
      for (std::size_t to = 0; to < taken.size(); ++to)
        verifyBatch(static_cast<PartId>(to), taken[to], posted[to]);
    return taken;
  }

  /// Verify one destination's batch: unframe (magic + CRC), restore
  /// per-channel FIFO order, reject duplicates, and check the batch is
  /// contiguous up to the sender-side counter snapshot. Leaves plain
  /// payloads in the box on success. In reliable mode the batch is
  /// salvaged (recoverBatch) instead of aborted.
  void verifyBatch(PartId to, std::vector<Pending>& box,
                   const std::unordered_map<PartId, std::uint64_t>& posted) {
    if (pcu::arq::enabled()) {
      recoverBatch(to, box, posted);
      return;
    }
    for (auto& msg : box)
      msg.bytes = pcu::faults::unframe(std::move(msg.bytes), msg.seq,
                                       static_cast<int>(to),
                                       static_cast<int>(msg.from),
                                       kNetChannelTag);
    // Group the box slots by source channel, sources in deterministic order.
    std::unordered_map<PartId, std::vector<std::size_t>> slots;
    std::vector<PartId> sources;
    for (std::size_t i = 0; i < box.size(); ++i) {
      auto& idx = slots[box[i].from];
      if (idx.empty()) sources.push_back(box[i].from);
      idx.push_back(i);
    }
    std::sort(sources.begin(), sources.end());
    auto& expected_map = recv_seq_[static_cast<std::size_t>(to)];
    for (PartId from : sources) {
      auto& idx = slots[from];
      // Sort this channel's messages by verified sequence number back into
      // the slots the channel occupies: per-channel FIFO is restored while
      // the cross-channel interleave of the box is preserved.
      std::vector<Pending> chan;
      chan.reserve(idx.size());
      for (std::size_t i : idx) chan.push_back(std::move(box[i]));
      std::sort(chan.begin(), chan.end(),
                [](const Pending& a, const Pending& b) {
                  return a.seq < b.seq;
                });
      std::uint64_t expect = expected_map[from];
      for (const auto& m : chan) {
        if (m.seq < expect)
          throw pcu::Error(pcu::ErrorCode::kDuplicateMessage,
                           static_cast<int>(to), static_cast<int>(from),
                           kNetChannelTag,
                           "channel seq " + std::to_string(m.seq) +
                               " already delivered");
        if (m.seq > expect)
          throw pcu::Error(pcu::ErrorCode::kMessageLost, static_cast<int>(to),
                           static_cast<int>(from), kNetChannelTag,
                           "sequence gap: expected " + std::to_string(expect) +
                               ", got " + std::to_string(m.seq));
        ++expect;
      }
      expected_map[from] = expect;
      for (std::size_t k = 0; k < idx.size(); ++k)
        box[idx[k]] = std::move(chan[k]);
    }
    // A fully-dropped channel (or dropped batch tail) leaves no frame to
    // flag a gap; the sender-side counter snapshot catches it.
    std::vector<PartId> senders;
    senders.reserve(posted.size());
    for (const auto& [from, count] : posted) {
      (void)count;
      senders.push_back(from);
    }
    std::sort(senders.begin(), senders.end());
    for (PartId from : senders) {
      const std::uint64_t need = posted.at(from);
      const std::uint64_t got = expected_map[from];
      if (got < need)
        throw pcu::Error(pcu::ErrorCode::kMessageLost, static_cast<int>(to),
                         static_cast<int>(from), kNetChannelTag,
                         std::to_string(need - got) +
                             " message(s) posted but never delivered");
    }
  }

  /// Reliable-mode phase boundary: instead of aborting on the first bad
  /// frame, salvage the whole batch. Corrupt frames are discarded (their
  /// seq field cannot be trusted) and re-fetched as missing; duplicate
  /// sequence numbers are silently dropped; every sequence the sender
  /// counters say was posted but did not survive is pulled from the resend
  /// buffer under attempt-salted fault decisions. The rebuilt box is
  /// ordered (sender, seq) — per-channel FIFO exactly as posted; the
  /// cross-channel interleave is normalized, which the handlers tolerate
  /// by the same contract that makes threaded delivery legal.
  void recoverBatch(PartId to, std::vector<Pending>& box,
                    const std::unordered_map<PartId, std::uint64_t>& posted) {
    const pcu::arq::Config cfg = pcu::arq::config();
    auto& expected_map = recv_seq_[static_cast<std::size_t>(to)];
    std::unordered_map<PartId, std::map<std::uint64_t, Pending>> chans;
    for (auto& msg : box) {
      try {
        msg.bytes = pcu::faults::unframe(std::move(msg.bytes), msg.seq,
                                         static_cast<int>(to),
                                         static_cast<int>(msg.from),
                                         kNetChannelTag);
      } catch (const pcu::Error&) {
        pcu::arq::noteCorruptDropped();
        continue;  // recovered below as a missing sequence number
      }
      if (msg.seq < expected_map[msg.from]) {
        pcu::arq::noteDuplicateDropped();
        continue;
      }
      const PartId from = msg.from;
      const std::uint64_t seq = msg.seq;
      if (!chans[from].try_emplace(seq, std::move(msg)).second)
        pcu::arq::noteDuplicateDropped();
    }
    box.clear();
    std::vector<PartId> senders;
    senders.reserve(posted.size());
    for (const auto& [from, count] : posted) {
      (void)count;
      senders.push_back(from);
    }
    std::sort(senders.begin(), senders.end());
    for (PartId from : senders) {
      const std::uint64_t need = posted.at(from);
      auto& have = chans[from];
      for (std::uint64_t seq = expected_map[from]; seq < need; ++seq) {
        auto hit = have.find(seq);
        if (hit != have.end())
          box.push_back(std::move(hit->second));
        else
          box.push_back(recoverSegment(to, from, seq, cfg));
      }
      expected_map[from] = need;
      // Acknowledge the verified prefix: the resend buffer can forget it.
      std::lock_guard<std::mutex> lock(mutex_);
      auto cit = resend_.find(channelKey(from, to));
      if (cit != resend_.end()) {
        cit->second.erase(cit->second.begin(), cit->second.lower_bound(need));
        if (cit->second.empty()) resend_.erase(cit);
        pcu::arq::noteAcked();
      }
    }
  }

  /// Pull one lost/corrupt segment back from the resend buffer, modelling
  /// each retransmission crossing the same faulty transport (attempt-salted
  /// decisions). Throws pcu::Error(kMessageLost) when the budget runs out.
  Pending recoverSegment(PartId to, PartId from, std::uint64_t seq,
                         const pcu::arq::Config& cfg) {
    std::vector<std::byte> framed;
    std::uint64_t salt0 = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      salt0 = epochSalt(0);
      auto cit = resend_.find(channelKey(from, to));
      auto fit = cit != resend_.end() ? cit->second.find(seq)
                                      : std::map<std::uint64_t,
                                                 std::vector<std::byte>>::
                                            iterator{};
      if (cit == resend_.end() || fit == cit->second.end())
        throw pcu::Error(pcu::ErrorCode::kMessageLost, static_cast<int>(to),
                         static_cast<int>(from), kNetChannelTag,
                         "channel seq " + std::to_string(seq) +
                             " lost and absent from the resend buffer");
      framed = fit->second;
    }
    for (int attempt = 1; attempt <= cfg.retry_budget; ++attempt) {
      pcu::arq::noteRetransmit();
      const auto action = pcu::faults::decide(
          from, to, kNetChannelTag,
          pcu::arq::saltSeq(seq, salt0 + static_cast<std::uint64_t>(attempt)));
      if (action == pcu::faults::Action::kCorrupt ||
          action == pcu::faults::Action::kDrop)
        continue;  // this retransmission was lost too
      std::uint64_t got = 0;
      auto payload =
          pcu::faults::unframe(std::move(framed), got, static_cast<int>(to),
                               static_cast<int>(from), kNetChannelTag);
      pcu::arq::noteRecovered();
      return Pending{from, std::move(payload), {}, got};
    }
    throw pcu::Error(pcu::ErrorCode::kMessageLost, static_cast<int>(to),
                     static_cast<int>(from), kNetChannelTag,
                     "retransmission budget exhausted after " +
                         std::to_string(cfg.retry_budget) +
                         " attempts (channel seq " + std::to_string(seq) +
                         ")");
  }

  /// Hand one destination part its pending messages, splitting each
  /// physical segment back into its logical sub-messages and attributing
  /// the delivery scope and each logical message to that part ("rank" =
  /// part id in the trace, in logical units).
  void deliverTo(
      PartId to, std::vector<Pending>& box,
      const std::function<void(PartId, PartId, pcu::InBuffer)>& handler) {
    if (box.empty()) return;
    const bool traced = pcu::trace::enabled();
    if (traced) pcu::trace::beginAs(to, "net:deliver");
    for (auto& msg : box) {
      if (!msg.bodies.empty()) {
        // Fast path: logical payloads arrive pre-split, moved with no copy.
        for (auto& b : msg.bodies) {
          if (traced)
            pcu::trace::recvAs(to, msg.from,
                               static_cast<std::int64_t>(b.size()), "net");
          handler(to, msg.from, pcu::InBuffer(std::move(b)));
        }
        continue;
      }
      // Framed path: split the verified contiguous segment.
      pcu::InBuffer segment(std::move(msg.bytes));
      while (!segment.done()) {
        const auto len = segment.unpack<std::uint32_t>();
        pcu::InBuffer body(segment.unpackRaw(len));
        if (traced)
          pcu::trace::recvAs(to, msg.from,
                             static_cast<std::int64_t>(body.size()), "net");
        handler(to, msg.from, std::move(body));
      }
    }
    if (traced) pcu::trace::endAs(to, "net:deliver");
  }
  PartMap map_;
  mutable std::mutex mutex_;
  std::vector<std::vector<Pending>> boxes_;
  /// Payloads staged since the last flush, already coalesced into
  /// per-(from, to) groups: driver-thread sends stage directly, task
  /// stages merge in after each forEachPart. Guarded by mutex_, with a
  /// one-entry cache for the channel of the previous send.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  std::vector<Group> staged_groups_;
  common::FlatMap<std::uint64_t, std::size_t> group_of_;
  std::uint64_t last_key_ = kNoKey;
  std::size_t last_group_ = 0;
  /// Cleared per-part stage vectors kept between forEachPart loops so
  /// their capacity is reused (guarded by mutex_).
  std::vector<std::vector<StagedMsg>> spare_stages_;
  pcu::CommStats stats_;
  bool coalesce_ = true;
  int thread_cap_ = std::numeric_limits<int>::max();
  // Framed-channel state (active only while faults::framingEnabled()).
  // send_seq_ is guarded by mutex_; recv_seq_ is touched only by the
  // single-threaded verification pass in takeVerified().
  std::unordered_map<std::uint64_t, std::uint64_t> send_seq_;
  std::vector<std::unordered_map<PartId, std::uint64_t>> recv_seq_;
  /// Reliable-mode resend buffer: clean framed segments kept per channel
  /// until their receiver verifies the phase (guarded by mutex_). Cleared
  /// by resetTransport().
  std::unordered_map<std::uint64_t,
                     std::map<std::uint64_t, std::vector<std::byte>>>
      resend_;
  /// Fault-decision epoch (see bumpFaultEpoch); guarded by mutex_.
  std::uint64_t fault_epoch_ = 0;
  /// Rank-fault state (driver thread only: touched at phase boundaries).
  std::set<int> dead_ranks_;
  /// Joiners announced by a consumed join=K@P token, awaiting admission
  /// (driver thread only).
  int pending_join_ = 0;
  std::uint64_t phase_counter_ = 0;
  std::uint64_t rank_fault_sig_ = 0;
  bool rank_fault_seen_ = false;
};

}  // namespace dist

#endif  // PUMI_DIST_NETWORK_HPP
