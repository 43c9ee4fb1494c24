#include "noc/router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "obs/flight_recorder.hpp"

namespace nocdvfs::noc {

namespace {
/// VA starvation bound: a Waiting VC that fails to win an output VC for
/// this many consecutive cycles is re-routed onto its deterministic escape
/// path (minimal-adaptive routing only).
constexpr int kEscapeWaitCycles = 64;

constexpr std::uint64_t bit(int i) noexcept { return std::uint64_t{1} << i; }
}  // namespace

Router::Router(NodeId id, int radix, const RouterConfig& cfg)
    : id_(id),
      cfg_(cfg),
      radix_(radix),
      all_vcs_(cfg.num_vcs >= 64 ? ~std::uint64_t{0} : bit(cfg.num_vcs) - 1),
      va_alloc_(radix * cfg.num_vcs, radix * cfg.num_vcs) {
  if (cfg.num_vcs < 1 || cfg.num_vcs > kMaxVcs) {
    throw std::invalid_argument("Router: num_vcs must be in [1, 64]");
  }
  if (cfg.vc_buffer_depth < 1 || cfg.vc_buffer_depth > kMaxVcBufferDepth) {
    throw std::invalid_argument("Router: vc_buffer_depth must be in [1, 255]");
  }
  if (radix < 1 || radix > kMaxPorts) {
    throw std::invalid_argument("Router: radix must be in [1, kMaxPorts]");
  }
  const auto vcs = static_cast<std::size_t>(radix * cfg.num_vcs);
  vcs_.resize(vcs);
  ring_.resize(vcs * static_cast<std::size_t>(cfg.vc_buffer_depth));
  credits_.assign(vcs, 0);
  wired_in_.reserve(static_cast<std::size_t>(radix));
  wired_out_.reserve(static_cast<std::size_t>(radix));
  port_peer_.fill(id);
  first_local_port_ = radix;  // no local ports until told otherwise
}

void Router::set_routing_engine(const topo::RoutingEngine* engine) {
  engine_ = engine;
  adaptive_escape_ = engine != nullptr && engine->adaptive_escape();
}

void Router::connect_input(int port, FlitChannel* flit_in, CreditChannel* credit_out) {
  if (port < 0 || port >= radix_) throw std::out_of_range("Router::connect_input: bad port");
  const auto pi = static_cast<std::size_t>(port);
  NOCDVFS_ASSERT(flit_in_[pi] == nullptr, "input port wired twice");
  if (flit_in == nullptr || credit_out == nullptr) {
    throw std::invalid_argument("Router::connect_input: null channel");
  }
  flit_in_[pi] = flit_in;
  credit_out_[pi] = credit_out;
  in_slot_[pi] = static_cast<std::uint8_t>(wired_in_.size());
  flit_in->set_reader_bit(&pending_.flits, static_cast<int>(wired_in_.size()));
  wired_in_.push_back(port);
}

void Router::connect_output(int port, FlitChannel* flit_out, CreditChannel* credit_in) {
  if (port < 0 || port >= radix_) throw std::out_of_range("Router::connect_output: bad port");
  const auto pi = static_cast<std::size_t>(port);
  NOCDVFS_ASSERT(flit_out_[pi] == nullptr, "output port wired twice");
  if (flit_out == nullptr || credit_in == nullptr) {
    throw std::invalid_argument("Router::connect_output: null channel");
  }
  flit_out_[pi] = flit_out;
  credit_in_[pi] = credit_in;
  credit_in->set_reader_bit(&pending_.credits, static_cast<int>(wired_out_.size()));
  wired_out_.push_back(port);
  // Credits mirror the downstream input buffer, one counter per VC.
  for (int v = 0; v < cfg_.num_vcs; ++v) {
    credits_[vc_index(port, v)] = static_cast<std::uint8_t>(cfg_.vc_buffer_depth);
  }
}

std::uint32_t Router::take_front(std::size_t k) noexcept {
  InputVc& ivc = vcs_[k];
  const std::uint32_t slot = ring_at(k, ivc.head);
  ivc.head = static_cast<std::uint8_t>(ivc.head + 1 == cfg_.vc_buffer_depth ? 0 : ivc.head + 1);
  --ivc.count;
  return slot;
}

std::uint32_t Router::store(const Flit& flit) {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    pool_[slot] = flit;
    return slot;
  }
  // Every slot holds a buffered flit, and each VC ring bounds its own
  // count, so the pool stays within one slot per ring entry. It doubles up
  // to that cap, and the free list reserves as much, so freeing a slot
  // never allocates.
  const std::size_t slot = pool_.size();
  NOCDVFS_ASSERT(slot < ring_.size(), "flit pool outgrew the router's buffers");
  if (slot == pool_.capacity()) {
    const std::size_t grown = std::min(std::max<std::size_t>(2 * slot, 4), ring_.size());
    pool_.reserve(grown);
    free_.reserve(grown);
  }
  pool_.push_back(flit);
  return static_cast<std::uint32_t>(slot);
}

void Router::receive_phase() {
  // Set bits ascend in wiring order, so the pops happen in the order a
  // scan of every wired port would make them; an empty channel's pop is a
  // no-op, which is why skipping clear bits changes nothing. The loops
  // walk snapshots: a pop that empties a channel clears its live bit.
  for (std::uint64_t m = pending_.credits; m != 0; m &= m - 1) {
    const int q = wired_out_[static_cast<std::size_t>(std::countr_zero(m))];
    if (const auto credit = credit_in_[static_cast<std::size_t>(q)]->pop()) {
      std::uint8_t& credits = credits_[vc_index(q, credit->vc)];
      NOCDVFS_ASSERT(credits < cfg_.vc_buffer_depth, "credit counter overflow");
      ++credits;
    }
  }
  const int depth = cfg_.vc_buffer_depth;
  for (std::uint64_t m = pending_.flits; m != 0; m &= m - 1) {
    const int slot = std::countr_zero(m);
    const int p = wired_in_[static_cast<std::size_t>(slot)];
    FlitChannel& in = *flit_in_[static_cast<std::size_t>(p)];
    const Flit* arriving = in.peek();
    if (arriving == nullptr) continue;
    // The one copy of this hop's arrival: channel entry -> pool slot.
    const int v = arriving->vc;
    const std::size_t k = vc_index(p, v);
    InputVc& ivc = vcs_[k];
    NOCDVFS_ASSERT(ivc.count < depth, "flit arrived to a full VC buffer (credit bug)");
    int tail = ivc.head + ivc.count;
    if (tail >= depth) tail -= depth;
    const std::uint32_t stored = store(*arriving);
    in.pop_front();
    ring_at(k, tail) = stored;
    ++ivc.count;
    ++activity_.buffer_writes;
    ++buffered_total_;
    const Flit& flit = pool_[stored];
    if (flight_recorder_ && flit.head) {
      flight_recorder_->on_router_arrive(flit.packet_id, id_);
    }
    if (ivc.state == VcStateKind::Idle && ivc.count == 1) {
      rc_mask_[static_cast<std::size_t>(p)] |= bit(v);
      rc_ports_ |= 1u << slot;
    } else if (ivc.state == VcStateKind::Active) {
      sa_candidates_[static_cast<std::size_t>(p)] |= bit(v);
    }
    // Drop VCs just accumulate; the drain stage empties them.
  }
}

void Router::compute_phase() {
  if (stall_tracking_ && (buffered_total_ > 0 || drop_pending_ > 0)) {
    compute_phase_tracked();
    return;
  }
  if (drop_pending_ > 0) credit_pushed_.fill(0);
  if (buffered_total_ > 0) switch_allocation_and_traversal();
  if (drop_pending_ > 0) drain_drops();
  if (va_ports_ != 0) vc_allocation();
  if (rc_ports_ != 0) route_computation();
}

void Router::compute_phase_tracked() {
  // Pre-classify every busy VC before any stage runs: what could this VC
  // have done this cycle? The classification is exact because nothing a
  // stage does can retroactively change it — credits only replenish in
  // receive_phase, VA/RC run *after* SA, an RC-created Drop VC cannot
  // drain in the same cycle, and the drain stage only empties
  // pre-classified Drop VCs. The work masks are the busy VCs by class: a
  // buffered Idle VC awaits RC, a Waiting VC always buffers its head, and
  // the SA candidates are the buffered Active VCs.
  std::uint64_t n_route = 0, n_va = 0, n_credit = 0, n_eligible = 0, n_drop = 0;
  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    n_route += static_cast<std::uint64_t>(std::popcount(rc_mask_[pi]));
    n_va += static_cast<std::uint64_t>(std::popcount(va_mask_[pi]));
    for (std::uint64_t m = sa_candidates_[pi]; m != 0; m &= m - 1) {
      const InputVc& ivc = vcs_[vc_index(p, std::countr_zero(m))];
      if (credits_[vc_index(ivc.out_port, ivc.out_vc)] > 0) {
        ++n_eligible;
      } else {
        ++n_credit;
      }
    }
    if (drop_pending_ == 0) continue;
    for (int v = 0; v < cfg_.num_vcs; ++v) {
      const InputVc& ivc = vcs_[vc_index(p, v)];
      if (ivc.state == VcStateKind::Drop && ivc.count > 0) ++n_drop;
    }
  }

  const std::uint64_t grants_before = activity_.sw_alloc_grants;
  const std::uint64_t drops_before = dropped_flits_;
  if (drop_pending_ > 0) credit_pushed_.fill(0);
  if (buffered_total_ > 0) switch_allocation_and_traversal();
  if (drop_pending_ > 0) drain_drops();

  // Each SA grant consumed one pre-classified eligible VC (the allocator
  // never grants an input port twice per cycle), each drain emptied one
  // flit from a pre-classified Drop VC; the rest of each class stalled.
  const std::uint64_t granted = activity_.sw_alloc_grants - grants_before;
  const std::uint64_t drained = dropped_flits_ - drops_before;
  NOCDVFS_ASSERT(granted <= n_eligible, "SA granted more VCs than were eligible");
  NOCDVFS_ASSERT(drained <= n_drop, "drained more Drop VCs than were buffered");
  stalls_.route += n_route;
  stalls_.vc_alloc += n_va;
  stalls_.credit += n_credit;
  stalls_.sw += n_eligible - granted;
  stalls_.drop += n_drop - drained;
  stalls_.busy_vc_cycles += n_route + n_va + n_credit + n_eligible + n_drop;
  stalls_.forwarded += granted + drained;

  if (va_ports_ != 0) vc_allocation();
  if (rc_ports_ != 0) route_computation();
}

void Router::switch_allocation_and_traversal() {
  // Stage 1 (input arbitration): each input port selects one SA-eligible VC,
  // scanning round-robin from its pointer. Eligible: Active, flit buffered,
  // credit available on the held output VC. The chosen VC's output port
  // records the input port in its requester mask.
  std::array<std::uint8_t, kMaxPorts> chosen_vc;  // read only for requesting ports
  std::array<std::uint32_t, kMaxPorts> requesters{};
  std::uint32_t requested = 0;  // output ports with at least one requester

  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    const std::uint64_t candidates = sa_candidates_[pi];
    if (candidates == 0) continue;
    // Round-robin over the candidate bitmask: bits at/above the pointer
    // first, then the wrapped-around low bits.
    const std::uint64_t above = candidates & ~(bit(sa_input_ptr_[pi]) - 1);
    auto scan = [&](std::uint64_t bits) -> int {
      while (bits != 0) {
        const int v = std::countr_zero(bits);
        const InputVc& ivc = vcs_[vc_index(p, v)];
        if (credits_[vc_index(ivc.out_port, ivc.out_vc)] > 0) return v;
        bits &= bits - 1;  // credit-starved: try the next candidate
      }
      return -1;
    };
    int v = scan(above);
    if (v < 0) v = scan(candidates & ~above);
    if (v < 0) continue;
    chosen_vc[pi] = static_cast<std::uint8_t>(v);
    const int q = vcs_[vc_index(p, v)].out_port;
    requesters[static_cast<std::size_t>(q)] |= 1u << p;
    requested |= 1u << q;
    ++activity_.alloc_requests;
  }

  // Stage 2 (output arbitration): each requested output port, ascending,
  // grants the first requesting input port at/after its pointer, wrapping
  // around. Pointers advance only on a grant (iSLIP discipline).
  for (; requested != 0; requested &= requested - 1) {
    const int q = std::countr_zero(requested);
    const auto qi = static_cast<std::size_t>(q);
    const std::uint32_t req = requesters[qi];
    const std::uint32_t at_or_after = req & ~((1u << sa_output_ptr_[qi]) - 1);
    const int winner = std::countr_zero(at_or_after != 0 ? at_or_after : req);
    const auto wi = static_cast<std::size_t>(winner);
    sa_output_ptr_[qi] = static_cast<std::uint8_t>(winner + 1 == radix_ ? 0 : winner + 1);
    const int v = chosen_vc[wi];
    sa_input_ptr_[wi] = static_cast<std::uint8_t>(v + 1 == cfg_.num_vcs ? 0 : v + 1);
    ++activity_.sw_alloc_grants;
    traverse(winner, v);
  }
}

void Router::traverse(int in_port, int in_vc) {
  const std::size_t k = vc_index(in_port, in_vc);
  InputVc& ivc = vcs_[k];
  const int q = ivc.out_port;
  const auto qi = static_cast<std::size_t>(q);
  const auto pi = static_cast<std::size_t>(in_port);

  // Only receive_phase hands out pool slots, so the slot stays intact until
  // the next receive_phase: the flit is restamped and pushed in place after
  // the ring has advanced past it, and its slot is freed once it is pushed.
  const std::uint32_t slot = take_front(k);
  Flit& flit = pool_[slot];
  --buffered_total_;
  if (ivc.count == 0) sa_candidates_[pi] &= ~bit(in_vc);
  ++activity_.buffer_reads;
  ++activity_.crossbar_traversals;
  ++port_flits_tx_[qi];

  std::uint8_t& credits = credits_[vc_index(q, ivc.out_vc)];
  NOCDVFS_ASSERT(credits > 0, "switch traversal without credit");
  --credits;
  flit.vc = static_cast<std::uint8_t>(ivc.out_vc);
  ++flit.hops;
  if (traverse_hook_) engine_->on_traverse(id_, q, flit);
  if (flight_recorder_ && flit.head) {
    flight_recorder_->on_depart(flit.packet_id, id_, q);
  }
  if (q >= first_local_port_) {
    ++activity_.local_flit_hops;
  } else {
    ++activity_.link_flit_hops;
  }
  flit_out_[qi]->push(flit);
  free_.push_back(slot);

  // Freed buffer slot: credit flows back to the upstream sender.
  credit_out_[pi]->push(Credit{static_cast<std::uint8_t>(in_vc)});
  if (drop_pending_ > 0) credit_pushed_[pi] = 1;

  if (wake_ != nullptr) {
    // Both pushes target another clock domain's inputs: the flit wakes the
    // downstream tile, the credit the upstream one (the only mechanism by
    // which a drained-but-credit-starved router ever resumes).
    wake_->wake(port_peer_[qi]);
    wake_->wake(port_peer_[pi]);
  }

  if (flit.tail) {
    allocated_[qi] &= ~bit(ivc.out_vc);
    ivc.state = VcStateKind::Idle;
    ivc.out_port = -1;
    ivc.out_vc = -1;
    sa_candidates_[pi] &= ~bit(in_vc);
    if (ivc.count != 0) {
      NOCDVFS_ASSERT(front(k).head, "flit following a tail must be a head");
      mark_routable(in_port, in_vc);  // the next packet's head awaits RC
    }
  }
}

void Router::drain_drops() {
  // One flit per input port per cycle leaves a Drop VC: the buffer read and
  // upstream credit mimic a normal dequeue (so flow control stays exact),
  // but the flit lands in the drop counters instead of the crossbar.
  for (const int p : wired_in_) {
    const auto pi = static_cast<std::size_t>(p);
    if (credit_pushed_[pi] != 0) continue;
    for (int v = 0; v < cfg_.num_vcs; ++v) {
      const std::size_t k = vc_index(p, v);
      InputVc& ivc = vcs_[k];
      if (ivc.state != VcStateKind::Drop || ivc.count == 0) continue;
      const std::uint32_t slot = take_front(k);
      const Flit& flit = pool_[slot];
      free_.push_back(slot);  // intact until the next receive_phase
      --buffered_total_;
      ++activity_.buffer_reads;
      ++dropped_flits_;
      if (flit.head) ++dropped_packets_;
      if (flight_recorder_ && flit.head) flight_recorder_->on_drop(flit.packet_id, id_);
      credit_out_[pi]->push(Credit{static_cast<std::uint8_t>(v)});
      credit_pushed_[pi] = 1;
      if (wake_ != nullptr) wake_->wake(port_peer_[pi]);
      if (flit.tail) {
        ivc.state = VcStateKind::Idle;
        ivc.out_port = -1;
        ivc.out_vc = -1;
        ivc.vc_mask = ~std::uint64_t{0};
        --drop_pending_;
        if (ivc.count != 0) {
          NOCDVFS_ASSERT(front(k).head, "flit following a tail must be a head");
          mark_routable(p, v);
        }
      }
      break;  // port's credit budget for this cycle is spent
    }
  }
}

void Router::vc_allocation() {
  // Each Waiting VC requests every free output VC its RC decision allows.
  const int v_count = cfg_.num_vcs;
  bool any_request = false;
  for (std::uint32_t ports = va_ports_; ports != 0; ports &= ports - 1) {
    const int p = wired_in_[static_cast<std::size_t>(std::countr_zero(ports))];
    for (std::uint64_t m = va_mask_[static_cast<std::size_t>(p)]; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const std::size_t k = vc_index(p, v);
      InputVc& ivc = vcs_[k];
      if (adaptive_escape_ && ++ivc.wait_cycles >= kEscapeWaitCycles) {
        // Starved of an output VC: abandon the adaptive choice and confine
        // the packet to its deterministic escape path, whose VC class the
        // Duato argument keeps deadlock-free.
        const topo::RouteDecision escape = engine_->route(id_, front(k), *this, true);
        ivc.out_port = static_cast<std::int8_t>(escape.out_port);
        ivc.vc_mask = escape.vc_mask;
        ivc.wait_cycles = 0;
      }
      const int agent = static_cast<int>(k);
      const std::uint64_t free =
          ivc.vc_mask & ~allocated_[static_cast<std::size_t>(ivc.out_port)] & all_vcs_;
      for (std::uint64_t u = free; u != 0; u &= u - 1) {
        va_alloc_.add_request(agent, ivc.out_port * v_count + std::countr_zero(u));
        ++activity_.alloc_requests;
        any_request = true;
      }
    }
  }
  if (!any_request) return;

  for (const auto& [agent, resource] : va_alloc_.allocate()) {
    const int p = agent / v_count;
    const int v = agent % v_count;
    const int q = resource / v_count;
    const int u = resource % v_count;
    const auto pi = static_cast<std::size_t>(p);
    InputVc& ivc = vcs_[static_cast<std::size_t>(agent)];
    std::uint64_t& allocated = allocated_[static_cast<std::size_t>(q)];
    NOCDVFS_ASSERT(ivc.state == VcStateKind::Waiting, "VA grant to non-waiting VC");
    NOCDVFS_ASSERT((allocated & bit(u)) == 0, "VA granted an allocated output VC");
    NOCDVFS_ASSERT(q == ivc.out_port, "VA grant on wrong output port");
    ivc.state = VcStateKind::Active;
    va_mask_[pi] &= ~bit(v);
    if (va_mask_[pi] == 0) va_ports_ &= ~(1u << in_slot_[pi]);
    // A Waiting VC always still buffers its head flit, so it becomes an SA
    // candidate immediately.
    sa_candidates_[pi] |= bit(v);
    if (flight_recorder_) {
      flight_recorder_->on_vc_grant(front(static_cast<std::size_t>(agent)).packet_id, id_, u);
    }
    ivc.out_vc = static_cast<std::int8_t>(u);
    allocated |= bit(u);
    ++activity_.vc_alloc_grants;
  }
}

void Router::route_computation() {
  // Every routable VC is routed this cycle, so the masks empty as we go.
  for (std::uint32_t ports = rc_ports_; ports != 0; ports &= ports - 1) {
    const int slot = std::countr_zero(ports);
    const int p = wired_in_[static_cast<std::size_t>(slot)];
    const auto pi = static_cast<std::size_t>(p);
    for (std::uint64_t m = rc_mask_[pi]; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const std::size_t k = vc_index(p, v);
      InputVc& ivc = vcs_[k];
      Flit& head = front(k);
      NOCDVFS_ASSERT(ivc.state == VcStateKind::Idle && ivc.count > 0,
                     "RC work on a VC that is not Idle with a buffered head");
      NOCDVFS_ASSERT(head.head, "non-head flit at the front of an Idle VC");
      const topo::RouteDecision decision = engine_->route(id_, head, *this, false);
      if (decision.out_port < 0) {
        // No surviving route: drain the packet into the drop counters.
        ivc.state = VcStateKind::Drop;
        ++drop_pending_;
        continue;
      }
      ivc.out_port = static_cast<std::int8_t>(decision.out_port);
      ivc.vc_mask = decision.vc_mask;
      if (flight_recorder_) {
        flight_recorder_->on_route(head.packet_id, id_, decision.out_port);
      }
      NOCDVFS_ASSERT(flit_out_[static_cast<std::size_t>(decision.out_port)] != nullptr,
                     "route computed towards an unwired port");
      ivc.wait_cycles = 0;
      ivc.state = VcStateKind::Waiting;
      va_mask_[pi] |= bit(v);
      va_ports_ |= 1u << slot;
    }
    rc_mask_[pi] = 0;
  }
  rc_ports_ = 0;
}

int Router::downstream_backlog(int port) const {
  int backlog = 0;
  for (int v = 0; v < cfg_.num_vcs; ++v) {
    backlog += cfg_.vc_buffer_depth - credits_[vc_index(port, v)];
  }
  return backlog;
}

int Router::buffered_flits() const noexcept {
  int n = 0;
  for (const InputVc& ivc : vcs_) n += ivc.count;
  return n;
}

std::size_t Router::checked_vc_index(PortDir port, int vc) const {
  const int p = port_index(port);
  if (p >= radix_ || vc < 0 || vc >= cfg_.num_vcs) {
    throw std::out_of_range("Router: port or VC out of range");
  }
  return vc_index(p, vc);
}

int Router::output_credits(PortDir port, int vc) const {
  return credits_[checked_vc_index(port, vc)];
}

bool Router::output_vc_allocated(PortDir port, int vc) const {
  checked_vc_index(port, vc);
  return (allocated_[static_cast<std::size_t>(port_index(port))] & bit(vc)) != 0;
}

VcStateKind Router::input_vc_state(PortDir port, int vc) const {
  return vcs_[checked_vc_index(port, vc)].state;
}

int Router::input_vc_occupancy(PortDir port, int vc) const {
  return vcs_[checked_vc_index(port, vc)].count;
}

}  // namespace nocdvfs::noc
