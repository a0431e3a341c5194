#ifndef PUMI_DIST_EXCHANGE_HPP
#define PUMI_DIST_EXCHANGE_HPP

/// \file exchange.hpp
/// \brief A compiled halo exchange over the part-boundary copies of one
/// entity dimension.
///
/// The remote-copy links of a PartedMesh do not change while its topology
/// does not, so resolving them through hash maps on every exchange is wasted
/// work. An Exchange resolves them once into flat index arrays and then
/// replays them as gather -> one message per (from, to) channel -> scatter,
/// in the spirit of PetscSF's star forest and omega_h's Dist::exch.
///
/// An *item* is an entity's position in mesh.entities(dim) iteration order
/// on its part; the value arrays handed to sum() are indexed by item.
///
/// Build: each part lists, per peer channel, the items it packs and the
/// peer-side entity handles they land on. One build round over the Network
/// ships the handles, and each receiver resolves them into its own flat
/// scatter array, so no part reads another part's maps.
///
/// Every message goes through Network::send/deliverAll: framing and CRC,
/// reliable delivery, fault injection, the dead-rank gate and CommStats
/// all apply unchanged. The gather (one task per source part) and the
/// scatter (one task per destination part) run on the worker pool. Received bodies are untrusted: a
/// body from a (from, to) pair with no channel, or of the wrong length, is
/// rejected with pcu::Error(kValidation) naming both parts.

#include <cstddef>
#include <span>
#include <vector>

#include "dist/partedmesh.hpp"

namespace dist {

class Exchange {
 public:
  /// Compile the plan for the dimension-`dim` entities of `pm` (one build
  /// round on its network). The plan stays valid until the mesh's topology,
  /// ownership or part set changes.
  Exchange(PartedMesh& pm, int dim);

  /// Make every copy of a shared entity hold the sum of all its copies'
  /// values: copies send their values to the owner, which adds them with
  /// `+=`, then the owner broadcasts the total back. `values[p]` is part
  /// p's array, one value per item.
  ///
  /// Order contract: channels are posted in ascending source part, and
  /// within a channel items keep the source part's remotes() iteration
  /// order. An owner therefore adds contributions source part by source
  /// part, each in remotes() order, so results are bit-reproducible at
  /// every width. After a thrown error the values are unspecified.
  void sum(const std::vector<std::span<double>>& values);

  /// Number of (copy part -> owner part) channels. The broadcast runs over
  /// the reverse channels, so one sum() posts 2 x channels() messages.
  [[nodiscard]] std::size_t channels() const;

  /// Number of items on part p.
  [[nodiscard]] std::size_t items(PartId p) const {
    return items_.at(static_cast<std::size_t>(p));
  }

 private:
  /// One peer channel: the local items packed (send side) or scattered
  /// into (receive side), in message order.
  struct Channel {
    PartId peer = -1;
    std::vector<int> items;
  };
  /// One direction of the exchange: per part, the channels it sends on and
  /// receives on, each sorted by peer part.
  struct Plan {
    std::vector<std::vector<Channel>> send;
    std::vector<std::vector<Channel>> recv;
  };

  void run(const Plan& plan, const std::vector<std::span<double>>& values,
           bool add);

  Network& net_;
  std::vector<std::size_t> items_;
  Plan reduce_;     ///< copies -> owners
  Plan broadcast_;  ///< owners -> copies
};

}  // namespace dist

#endif  // PUMI_DIST_EXCHANGE_HPP
