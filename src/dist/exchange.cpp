#include "dist/exchange.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "pcu/trace.hpp"

namespace dist {

namespace {

using Index = common::FlatMap<Ent, int, EntHash>;

/// Reject an untrusted body. Thrown from a delivery handler: deliverAll
/// rethrows the lowest part's error once every destination has run.
[[noreturn]] void reject(PartId to, PartId from, const std::string& what) {
  throw pcu::Error(pcu::ErrorCode::kValidation, static_cast<int>(to),
                   static_cast<int>(from), kNetChannelTag,
                   "exchange: " + what + " (from part " + std::to_string(from) +
                       " to part " + std::to_string(to) + ")");
}

/// Per-peer build lists of one part: the items it packs and the handles of
/// the peer's copies they land on, for both directions.
struct PeerLists {
  std::vector<int> reduce_items, broadcast_items;
  std::vector<std::uint64_t> reduce_handles, broadcast_handles;
};

void packHandles(pcu::OutBuffer& buf, const std::vector<std::uint64_t>& h) {
  buf.pack<std::uint64_t>(h.size());
  buf.packBytes(h.data(), h.size() * sizeof(std::uint64_t));
}

/// Read one length-prefixed handle list off an untrusted plan body and
/// resolve it into the receiver's items.
std::vector<int> readItems(pcu::InBuffer& body, const Index& index, PartId to,
                           PartId from) {
  if (body.remaining() < sizeof(std::uint64_t))
    reject(to, from, "truncated plan body");
  const auto n = body.unpack<std::uint64_t>();
  if (n > body.remaining() / sizeof(std::uint64_t))
    reject(to, from,
           "plan body announces " + std::to_string(n) + " handles but carries " +
               std::to_string(body.remaining()) + " bytes");
  std::vector<int> items;
  items.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t k = 0; k < n; ++k) {
    const auto packed = body.unpack<std::uint64_t>();
    const auto it = index.find(Ent::unpack(packed));
    if (it == index.end())
      reject(to, from,
             "plan names entity handle " + std::to_string(packed) +
                 " absent from the receiver");
    items.push_back(it->second);
  }
  return items;
}

}  // namespace

Exchange::Exchange(PartedMesh& pm, int dim) : net_(pm.network()) {
  pcu::trace::Scope trace_scope("dist:exchange:build");
  const auto nparts = static_cast<std::size_t>(pm.parts());
  items_.assign(nparts, 0);
  for (Plan* plan : {&reduce_, &broadcast_}) {
    plan->send.resize(nparts);
    plan->recv.resize(nparts);
  }
  std::vector<Index> index(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    int i = 0;
    for (Ent e : pm.part(static_cast<PartId>(p)).mesh().entities(dim))
      index[p].emplace(e, i++);
    items_[p] = static_cast<std::size_t>(i);
  }

  // Each part walks its remotes once, in remotes() order, and posts one
  // plan message per peer carrying the peer-side handles.
  for (std::size_t p = 0; p < nparts; ++p) {
    const auto self = static_cast<PartId>(p);
    std::map<PartId, PeerLists> peers;
    for (const auto& [e, rem] : pm.part(self).remotes()) {
      if (core::topoDim(e.topo()) != dim) continue;
      const int item = index[p].at(e);
      for (const Copy& c : rem.copies) {
        if (rem.owner == self) {
          auto& l = peers[c.part];
          l.broadcast_items.push_back(item);
          l.broadcast_handles.push_back(c.ent.packed());
        } else if (c.part == rem.owner) {
          auto& l = peers[c.part];
          l.reduce_items.push_back(item);
          l.reduce_handles.push_back(c.ent.packed());
        }
      }
    }
    for (auto& [peer, l] : peers) {
      if (!l.reduce_items.empty())
        reduce_.send[p].push_back({peer, std::move(l.reduce_items)});
      if (!l.broadcast_items.empty())
        broadcast_.send[p].push_back({peer, std::move(l.broadcast_items)});
      pcu::OutBuffer buf;
      buf.reserve(2 * sizeof(std::uint64_t) +
                  (l.reduce_handles.size() + l.broadcast_handles.size()) *
                      sizeof(std::uint64_t));
      packHandles(buf, l.reduce_handles);
      packHandles(buf, l.broadcast_handles);
      net_.send(self, peer, std::move(buf));
    }
  }

  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    const auto& idx = index[static_cast<std::size_t>(to)];
    Channel reduce{from, readItems(body, idx, to, from)};
    Channel broadcast{from, readItems(body, idx, to, from)};
    if (!body.done()) reject(to, from, "trailing bytes in plan body");
    const auto t = static_cast<std::size_t>(to);
    if (!reduce.items.empty()) reduce_.recv[t].push_back(std::move(reduce));
    if (!broadcast.items.empty())
      broadcast_.recv[t].push_back(std::move(broadcast));
  });
  // Receive channels sorted by peer; a peer appearing twice sent a
  // duplicated plan message.
  for (std::size_t p = 0; p < nparts; ++p) {
    for (auto* chans : {&reduce_.recv[p], &broadcast_.recv[p]}) {
      std::sort(chans->begin(), chans->end(),
                [](const Channel& a, const Channel& b) { return a.peer < b.peer; });
      for (std::size_t i = 1; i < chans->size(); ++i)
        if ((*chans)[i].peer == (*chans)[i - 1].peer)
          reject(static_cast<PartId>(p), (*chans)[i].peer,
                 "duplicate plan message");
    }
  }
}

std::size_t Exchange::channels() const {
  std::size_t n = 0;
  for (const auto& chans : reduce_.send) n += chans.size();
  return n;
}

void Exchange::sum(const std::vector<std::span<double>>& values) {
  pcu::trace::Scope trace_scope("dist:exchange:sum");
  if (values.size() != items_.size() ||
      static_cast<std::size_t>(net_.parts()) != items_.size())
    throw std::invalid_argument("exchange: part count differs from the plan");
  for (std::size_t p = 0; p < items_.size(); ++p)
    if (values[p].size() != items_[p])
      throw std::invalid_argument("exchange: part " + std::to_string(p) +
                                  " has " + std::to_string(values[p].size()) +
                                  " values for " + std::to_string(items_[p]) +
                                  " items");
  run(reduce_, values, /*add=*/true);
  run(broadcast_, values, /*add=*/false);
}

void Exchange::run(const Plan& plan,
                   const std::vector<std::span<double>>& values, bool add) {
  // Gather: each part packs its channels on its own task; the network
  // merges the sends in part order, so channels are posted in ascending
  // source part whatever the width.
  net_.forEachPart([&](PartId p) {
    const std::span<double> v = values[static_cast<std::size_t>(p)];
    for (const Channel& ch : plan.send[static_cast<std::size_t>(p)]) {
      pcu::OutBuffer buf;
      buf.reserve(ch.items.size() * sizeof(double));
      for (int i : ch.items) buf.pack<double>(v[static_cast<std::size_t>(i)]);
      net_.send(p, ch.peer, std::move(buf));
    }
  });
  // Scatter: one task per destination adds its channels in box order,
  // which is ascending source part.
  net_.deliverAll([&](PartId to, PartId from, pcu::InBuffer body) {
    const auto& chans = plan.recv[static_cast<std::size_t>(to)];
    const auto ch = std::lower_bound(
        chans.begin(), chans.end(), from,
        [](const Channel& c, PartId peer) { return c.peer < peer; });
    if (ch == chans.end() || ch->peer != from)
      reject(to, from, "no channel for this part pair");
    if (body.size() != ch->items.size() * sizeof(double))
      reject(to, from,
             "body of " + std::to_string(body.size()) + " bytes, expected " +
                 std::to_string(ch->items.size() * sizeof(double)));
    const std::span<double> v = values[static_cast<std::size_t>(to)];
    if (add) {
      for (int i : ch->items) v[static_cast<std::size_t>(i)] += body.unpack<double>();
    } else {
      for (int i : ch->items) v[static_cast<std::size_t>(i)] = body.unpack<double>();
    }
  });
}

}  // namespace dist
