#include "traffic/pattern.hpp"

#include <bit>
#include <numeric>
#include <sstream>
#include <stdexcept>


namespace nocdvfs::traffic {

using noc::Coord;
using noc::MeshTopology;
using noc::NodeId;

namespace {

class UniformPattern final : public TrafficPattern {
 public:
  explicit UniformPattern(const MeshTopology& topo) : nodes_(topo.num_nodes()) {}
  NodeId pick(NodeId, common::Rng& rng) const override {
    return static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(nodes_)));
  }
  bool deterministic() const noexcept override { return false; }

 private:
  int nodes_;
};

/// Base for coordinate-wise permutations.
class CoordPermutation : public TrafficPattern {
 public:
  explicit CoordPermutation(const MeshTopology& topo) : topo_(topo) {}
  NodeId pick(NodeId src, common::Rng&) const override {
    return topo_.node_at(map(topo_.coord_of(src)));
  }
  bool deterministic() const noexcept override { return true; }

 protected:
  virtual Coord map(Coord c) const = 0;
  MeshTopology topo_;
};

class TornadoPattern final : public CoordPermutation {
 public:
  using CoordPermutation::CoordPermutation;

 protected:
  // Dally & Towles: send (ceil(k/2) - 1) hops around each dimension.
  Coord map(Coord c) const override {
    const int kx = topo_.width();
    const int ky = topo_.height();
    return Coord{(c.x + (kx + 1) / 2 - 1) % kx, (c.y + (ky + 1) / 2 - 1) % ky};
  }
};

class BitComplementPattern final : public CoordPermutation {
 public:
  using CoordPermutation::CoordPermutation;

 protected:
  Coord map(Coord c) const override {
    return Coord{topo_.width() - 1 - c.x, topo_.height() - 1 - c.y};
  }
};

class TransposePattern final : public CoordPermutation {
 public:
  explicit TransposePattern(const MeshTopology& topo) : CoordPermutation(topo) {
    if (!topo.is_square()) {
      throw std::invalid_argument("transpose pattern requires a square mesh");
    }
  }

 protected:
  Coord map(Coord c) const override { return Coord{c.y, c.x}; }
};

class NeighborPattern final : public CoordPermutation {
 public:
  using CoordPermutation::CoordPermutation;

 protected:
  Coord map(Coord c) const override {
    return Coord{(c.x + 1) % topo_.width(), (c.y + 1) % topo_.height()};
  }
};

int log2_exact(int n) {
  if (n < 2 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("pattern requires a power-of-two node count");
  }
  return std::countr_zero(static_cast<unsigned>(n));
}

class ShufflePattern final : public TrafficPattern {
 public:
  explicit ShufflePattern(const MeshTopology& topo)
      : bits_(log2_exact(topo.num_nodes())), nodes_(topo.num_nodes()) {}
  NodeId pick(NodeId src, common::Rng&) const override {
    const unsigned s = static_cast<unsigned>(src);
    const unsigned rotated = ((s << 1) | (s >> (bits_ - 1))) & (static_cast<unsigned>(nodes_) - 1);
    return static_cast<NodeId>(rotated);
  }
  bool deterministic() const noexcept override { return true; }

 private:
  int bits_;
  int nodes_;
};

class BitReversePattern final : public TrafficPattern {
 public:
  explicit BitReversePattern(const MeshTopology& topo) : bits_(log2_exact(topo.num_nodes())) {}
  NodeId pick(NodeId src, common::Rng&) const override {
    unsigned s = static_cast<unsigned>(src);
    unsigned out = 0;
    for (int b = 0; b < bits_; ++b) {
      out = (out << 1) | (s & 1u);
      s >>= 1;
    }
    return static_cast<NodeId>(out);
  }
  bool deterministic() const noexcept override { return true; }

 private:
  int bits_;
};

class HotspotPattern final : public TrafficPattern {
 public:
  HotspotPattern(const MeshTopology& topo, double fraction)
      : nodes_(topo.num_nodes()),
        hotspot_(topo.node_at(Coord{topo.width() / 2, topo.height() / 2})),
        fraction_(fraction) {
    if (fraction < 0.0 || fraction > 1.0) {
      throw std::invalid_argument("hotspot fraction must be in [0, 1]");
    }
  }
  NodeId pick(NodeId, common::Rng& rng) const override {
    if (rng.bernoulli(fraction_)) return hotspot_;
    return static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(nodes_)));
  }
  bool deterministic() const noexcept override { return false; }

 private:
  int nodes_;
  NodeId hotspot_;
  double fraction_;
};

class RandomPermutationPattern final : public TrafficPattern {
 public:
  RandomPermutationPattern(const MeshTopology& topo, std::uint64_t seed)
      : perm_(static_cast<std::size_t>(topo.num_nodes())) {
    std::iota(perm_.begin(), perm_.end(), 0);
    common::Rng rng(seed);
    // Fisher–Yates with the deterministic project RNG.
    for (std::size_t i = perm_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_below(i));
      std::swap(perm_[i - 1], perm_[j]);
    }
  }
  NodeId pick(NodeId src, common::Rng&) const override {
    return perm_[static_cast<std::size_t>(src)];
  }
  bool deterministic() const noexcept override { return true; }

 private:
  std::vector<NodeId> perm_;
};

/// The one list of pattern names: create() and known_patterns() walk it.
struct NamedPattern {
  const char* name;
  std::unique_ptr<TrafficPattern> (*make)(const MeshTopology& topo, std::uint64_t seed,
                                          double hotspot_fraction);
};

template <class P>
std::unique_ptr<TrafficPattern> make_on(const MeshTopology& topo, std::uint64_t, double) {
  return std::make_unique<P>(topo);
}

constexpr NamedPattern kPatterns[] = {
    {"uniform", make_on<UniformPattern>},
    {"tornado", make_on<TornadoPattern>},
    {"bitcomp", make_on<BitComplementPattern>},
    {"transpose", make_on<TransposePattern>},
    {"neighbor", make_on<NeighborPattern>},
    {"shuffle", make_on<ShufflePattern>},
    {"bitrev", make_on<BitReversePattern>},
    {"hotspot",
     [](const MeshTopology& topo, std::uint64_t, double fraction)
         -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<HotspotPattern>(topo, fraction);
     }},
    {"permutation",
     [](const MeshTopology& topo, std::uint64_t seed, double) -> std::unique_ptr<TrafficPattern> {
       return std::make_unique<RandomPermutationPattern>(topo, seed);
     }},
};

}  // namespace

std::unique_ptr<TrafficPattern> TrafficPattern::create(const std::string& name,
                                                       const MeshTopology& topo,
                                                       std::uint64_t seed,
                                                       double hotspot_fraction) {
  for (const NamedPattern& p : kPatterns) {
    if (name == p.name) return p.make(topo, seed, hotspot_fraction);
  }
  std::ostringstream msg;
  msg << "TrafficPattern::create: unknown pattern '" << name << "' (valid:";
  for (const NamedPattern& p : kPatterns) msg << ' ' << p.name;
  msg << ")";
  throw std::invalid_argument(msg.str());
}

std::vector<std::string> TrafficPattern::known_patterns() {
  std::vector<std::string> names;
  for (const NamedPattern& p : kPatterns) names.emplace_back(p.name);
  return names;
}

}  // namespace nocdvfs::traffic
