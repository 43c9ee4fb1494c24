#include "noc/router.hpp"

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
}  // namespace

Router::Router(NodeId id, int radix, const RouterConfig& cfg)
    : id_(id),
      cfg_(cfg),
      radix_(radix),
      va_alloc_(radix * cfg.num_vcs, radix * cfg.num_vcs),
      sa_input_ptr_(static_cast<std::size_t>(radix), 0),
      sa_output_ptr_(static_cast<std::size_t>(radix), 0) {
  if (cfg.num_vcs < 1 || cfg.num_vcs > 64) {
    throw std::invalid_argument("Router: num_vcs must be in [1, 64]");
  }
  if (cfg.vc_buffer_depth < 1) {
    throw std::invalid_argument("Router: vc_buffer_depth must be positive");
  }
  if (radix < 1 || radix > kMaxPorts) {
    throw std::invalid_argument("Router: radix must be in [1, kMaxPorts]");
  }

  in_.resize(static_cast<std::size_t>(radix));
  out_.resize(static_cast<std::size_t>(radix));
  for (int p = 0; p < radix; ++p) {
    in_[static_cast<std::size_t>(p)].vcs.reserve(static_cast<std::size_t>(cfg.num_vcs));
    for (int v = 0; v < cfg.num_vcs; ++v) {
      in_[static_cast<std::size_t>(p)].vcs.emplace_back(cfg.vc_buffer_depth);
    }
    out_[static_cast<std::size_t>(p)].vcs.assign(static_cast<std::size_t>(cfg.num_vcs),
                                                 OutputVc{});
  }
  port_peer_.fill(id);
  first_local_port_ = radix;  // no local ports until told otherwise
}

void Router::set_routing_engine(const topo::RoutingEngine* engine) {
  engine_ = engine;
  adaptive_escape_ = engine != nullptr && engine->adaptive_escape();
}

void Router::connect_input(int port, FlitPort* flit_in, CreditPort* credit_out) {
  auto& ip = in_.at(static_cast<std::size_t>(port));
  NOCDVFS_ASSERT(ip.flit_in == nullptr, "input port wired twice");
  if (flit_in == nullptr || credit_out == nullptr) {
    throw std::invalid_argument("Router::connect_input: null channel");
  }
  ip.flit_in = flit_in;
  ip.credit_out = credit_out;
  flit_in->set_reader_bit(&pending_.flits, static_cast<int>(wired_in_.size()));
  wired_in_.push_back(port);
}

void Router::connect_output(int port, FlitPort* flit_out, CreditPort* credit_in) {
  auto& op = out_.at(static_cast<std::size_t>(port));
  NOCDVFS_ASSERT(op.flit_out == nullptr, "output port wired twice");
  if (flit_out == nullptr || credit_in == nullptr) {
    throw std::invalid_argument("Router::connect_output: null channel");
  }
  op.flit_out = flit_out;
  op.credit_in = credit_in;
  credit_in->set_reader_bit(&pending_.credits, static_cast<int>(wired_out_.size()));
  wired_out_.push_back(port);
  // Credits mirror the downstream input buffer, one counter per VC.
  for (auto& ovc : op.vcs) ovc.credits = cfg_.vc_buffer_depth;
}

void Router::receive_phase() {
  // Set bits ascend in wiring order, so the pops happen in the order a
  // scan of every wired port would make them; an empty channel's pop is a
  // no-op, which is why skipping clear bits changes nothing. The loops
  // walk snapshots: a pop that empties a channel clears its live bit.
  for (std::uint64_t m = pending_.credits; m != 0; m &= m - 1) {
    const int q = wired_out_[static_cast<std::size_t>(std::countr_zero(m))];
    auto& op = out_[static_cast<std::size_t>(q)];
    if (auto credit = op.credit_in->pop()) {
      auto& ovc = op.vcs[credit->vc];
      ++ovc.credits;
      NOCDVFS_ASSERT(ovc.credits <= cfg_.vc_buffer_depth, "credit counter overflow");
    }
  }
  for (std::uint64_t m = pending_.flits; m != 0; m &= m - 1) {
    const int p = wired_in_[static_cast<std::size_t>(std::countr_zero(m))];
    auto& ip = in_[static_cast<std::size_t>(p)];
    if (auto flit = ip.flit_in->pop()) {
      auto& ivc = ip.vcs[flit->vc];
      NOCDVFS_ASSERT(!ivc.buffer.full(), "flit arrived to a full VC buffer (credit bug)");
      ivc.buffer.push(*flit);
      ++activity_.buffer_writes;
      ++buffered_total_;
      if (flight_recorder_ && flit->head) {
        flight_recorder_->on_router_arrive(flit->packet_id, id_);
      }
      if (ivc.state == VcStateKind::Idle && ivc.buffer.size() == 1) {
        ++rc_pending_;
      } else if (ivc.state == VcStateKind::Active) {
        sa_candidates_[static_cast<std::size_t>(p)] |= std::uint64_t{1} << flit->vc;
      }
      // Drop VCs just accumulate; the drain stage empties them.
    }
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
  if (waiting_count_ > 0) vc_allocation();
  if (rc_pending_ > 0) route_computation();
}

void Router::compute_phase_tracked() {
  // Pre-classify every busy VC before any stage runs: what could this VC
  // have done this cycle? The classification is exact because nothing a
  // stage does can retroactively change it — credits only replenish in
  // receive_phase, VA/RC run *after* SA, an RC-created Drop VC cannot
  // drain in the same cycle, and the drain stage only empties
  // pre-classified Drop VCs.
  std::uint64_t n_route = 0, n_va = 0, n_credit = 0, n_eligible = 0, n_drop = 0;
  for (const int p : wired_in_) {
    const auto& ip = in_[static_cast<std::size_t>(p)];
    for (int v = 0; v < cfg_.num_vcs; ++v) {
      const auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      if (ivc.buffer.empty()) continue;
      switch (ivc.state) {
        case VcStateKind::Idle: ++n_route; break;
        case VcStateKind::Waiting: ++n_va; break;
        case VcStateKind::Active: {
          const auto& ovc = out_[static_cast<std::size_t>(ivc.out_port)]
                                .vcs[static_cast<std::size_t>(ivc.out_vc)];
          if (ovc.credits > 0) {
            ++n_eligible;
          } else {
            ++n_credit;
          }
          break;
        }
        case VcStateKind::Drop: ++n_drop; break;
      }
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

  if (waiting_count_ > 0) vc_allocation();
  if (rc_pending_ > 0) route_computation();
}

void Router::switch_allocation_and_traversal() {
  // Stage 1 (input arbitration): each input port selects one SA-eligible VC,
  // scanning round-robin from its pointer. Eligible: Active, flit buffered,
  // credit available on the held output VC.
  std::array<int, kMaxPorts> chosen_vc{};
  std::array<int, kMaxPorts> requested_out{};
  chosen_vc.fill(-1);
  requested_out.fill(-1);

  const int v_count = cfg_.num_vcs;
  for (const int p : wired_in_) {
    const std::uint64_t candidates = sa_candidates_[static_cast<std::size_t>(p)];
    if (candidates == 0) continue;
    auto& ip = in_[static_cast<std::size_t>(p)];
    const int ptr = sa_input_ptr_[static_cast<std::size_t>(p)];
    // Round-robin over the candidate bitmask: bits at/above the pointer
    // first, then the wrapped-around low bits.
    const std::uint64_t above = candidates & ~((std::uint64_t{1} << ptr) - 1);
    auto scan = [&](std::uint64_t bits) -> int {
      while (bits != 0) {
        const int v = std::countr_zero(bits);
        const auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
        const auto& ovc = out_[static_cast<std::size_t>(ivc.out_port)]
                              .vcs[static_cast<std::size_t>(ivc.out_vc)];
        if (ovc.credits > 0) return v;
        bits &= bits - 1;  // credit-starved: try the next candidate
      }
      return -1;
    };
    int v = scan(above);
    if (v < 0) v = scan(candidates & ~above);
    if (v < 0) continue;
    chosen_vc[static_cast<std::size_t>(p)] = v;
    requested_out[static_cast<std::size_t>(p)] = ip.vcs[static_cast<std::size_t>(v)].out_port;
    ++activity_.alloc_requests;
  }

  // Stage 2 (output arbitration): each output port grants one requesting
  // input port. Pointers advance only on a grant (iSLIP discipline).
  for (int q = 0; q < radix_; ++q) {
    if (!out_[static_cast<std::size_t>(q)].connected()) continue;
    const int ptr = sa_output_ptr_[static_cast<std::size_t>(q)];
    int winner = -1;
    int p = ptr;
    for (int off = 0; off < radix_; ++off) {
      if (requested_out[static_cast<std::size_t>(p)] == q) {
        winner = p;
        break;
      }
      if (++p == radix_) p = 0;
    }
    if (winner < 0) continue;
    sa_output_ptr_[static_cast<std::size_t>(q)] = winner + 1 == radix_ ? 0 : winner + 1;
    sa_input_ptr_[static_cast<std::size_t>(winner)] =
        (chosen_vc[static_cast<std::size_t>(winner)] + 1) % v_count;
    ++activity_.sw_alloc_grants;
    traverse(winner, chosen_vc[static_cast<std::size_t>(winner)]);
  }
}

void Router::traverse(int in_port, int in_vc) {
  auto& ip = in_[static_cast<std::size_t>(in_port)];
  auto& ivc = ip.vcs[static_cast<std::size_t>(in_vc)];
  auto& op = out_[static_cast<std::size_t>(ivc.out_port)];
  auto& ovc = op.vcs[static_cast<std::size_t>(ivc.out_vc)];

  Flit flit = ivc.buffer.pop();
  --buffered_total_;
  if (ivc.buffer.empty()) {
    sa_candidates_[static_cast<std::size_t>(in_port)] &= ~(std::uint64_t{1} << in_vc);
  }
  ++activity_.buffer_reads;
  ++activity_.crossbar_traversals;
  ++port_flits_tx_[static_cast<std::size_t>(ivc.out_port)];

  NOCDVFS_ASSERT(ovc.credits > 0, "switch traversal without credit");
  --ovc.credits;
  flit.vc = static_cast<std::uint8_t>(ivc.out_vc);
  ++flit.hops;
  if (traverse_hook_) engine_->on_traverse(id_, ivc.out_port, flit);
  if (flight_recorder_ && flit.head) {
    flight_recorder_->on_depart(flit.packet_id, id_, ivc.out_port);
  }
  if (ivc.out_port >= first_local_port_) {
    ++activity_.local_flit_hops;
  } else {
    ++activity_.link_flit_hops;
  }
  op.flit_out->push(flit);

  // Freed buffer slot: credit flows back to the upstream sender.
  NOCDVFS_ASSERT(ip.credit_out != nullptr, "dequeue from port without credit channel");
  ip.credit_out->push(Credit{static_cast<std::uint8_t>(in_vc)});
  if (drop_pending_ > 0) credit_pushed_[static_cast<std::size_t>(in_port)] = 1;

  if (wake_ != nullptr) {
    // Both pushes target another clock domain's inputs: the flit wakes the
    // downstream tile, the credit the upstream one (the only mechanism by
    // which a drained-but-credit-starved router ever resumes).
    wake_->wake(port_peer_[static_cast<std::size_t>(ivc.out_port)]);
    wake_->wake(port_peer_[static_cast<std::size_t>(in_port)]);
  }

  if (flit.tail) {
    ovc.allocated = false;
    ovc.owner_port = -1;
    ovc.owner_vc = -1;
    ivc.state = VcStateKind::Idle;
    ivc.out_port = -1;
    ivc.out_vc = -1;
    sa_candidates_[static_cast<std::size_t>(in_port)] &= ~(std::uint64_t{1} << in_vc);
    if (!ivc.buffer.empty()) {
      NOCDVFS_ASSERT(ivc.buffer.front().head, "flit following a tail must be a head");
      ++rc_pending_;  // the next packet's head awaits route computation
    }
  }
}

void Router::drain_drops() {
  // One flit per input port per cycle leaves a Drop VC: the buffer read and
  // upstream credit mimic a normal dequeue (so flow control stays exact),
  // but the flit lands in the drop counters instead of the crossbar.
  for (const int p : wired_in_) {
    if (credit_pushed_[static_cast<std::size_t>(p)] != 0) continue;
    auto& ip = in_[static_cast<std::size_t>(p)];
    const int v_count = cfg_.num_vcs;
    for (int v = 0; v < v_count; ++v) {
      auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      if (ivc.state != VcStateKind::Drop || ivc.buffer.empty()) continue;
      const Flit flit = ivc.buffer.pop();
      --buffered_total_;
      ++activity_.buffer_reads;
      ++dropped_flits_;
      if (flit.head) ++dropped_packets_;
      if (flight_recorder_ && flit.head) flight_recorder_->on_drop(flit.packet_id, id_);
      ip.credit_out->push(Credit{static_cast<std::uint8_t>(v)});
      credit_pushed_[static_cast<std::size_t>(p)] = 1;
      if (wake_ != nullptr) wake_->wake(port_peer_[static_cast<std::size_t>(p)]);
      if (flit.tail) {
        ivc.state = VcStateKind::Idle;
        ivc.out_port = -1;
        ivc.out_vc = -1;
        ivc.vc_mask = ~std::uint64_t{0};
        --drop_pending_;
        if (!ivc.buffer.empty()) {
          NOCDVFS_ASSERT(ivc.buffer.front().head, "flit following a tail must be a head");
          ++rc_pending_;
        }
      }
      break;  // port's credit budget for this cycle is spent
    }
  }
}

void Router::vc_allocation() {
  const int v_count = cfg_.num_vcs;
  bool any_request = false;
  for (const int p : wired_in_) {
    auto& ip = in_[static_cast<std::size_t>(p)];
    for (int v = 0; v < v_count; ++v) {
      auto& ivc = ip.vcs[static_cast<std::size_t>(v)];
      if (ivc.state != VcStateKind::Waiting) continue;
      if (adaptive_escape_ && ++ivc.wait_cycles >= kEscapeWaitCycles) {
        // Starved of an output VC: abandon the adaptive choice and confine
        // the packet to its deterministic escape path, whose VC class the
        // Duato argument keeps deadlock-free.
        Flit& head = ivc.buffer.front();
        const topo::RouteDecision escape = engine_->route(id_, head, *this, true);
        ivc.out_port = escape.out_port;
        ivc.vc_mask = escape.vc_mask;
        ivc.wait_cycles = 0;
      }
      const auto& op = out_[static_cast<std::size_t>(ivc.out_port)];
      const int agent = p * v_count + v;
      for (int u = 0; u < v_count; ++u) {
        if (((ivc.vc_mask >> u) & 1u) == 0) continue;
        if (op.vcs[static_cast<std::size_t>(u)].allocated) continue;
        va_alloc_.add_request(agent, ivc.out_port * v_count + u);
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
    auto& ivc = in_[static_cast<std::size_t>(p)].vcs[static_cast<std::size_t>(v)];
    auto& ovc = out_[static_cast<std::size_t>(q)].vcs[static_cast<std::size_t>(u)];
    NOCDVFS_ASSERT(ivc.state == VcStateKind::Waiting, "VA grant to non-waiting VC");
    NOCDVFS_ASSERT(!ovc.allocated, "VA granted an allocated output VC");
    NOCDVFS_ASSERT(q == ivc.out_port, "VA grant on wrong output port");
    ivc.state = VcStateKind::Active;
    --waiting_count_;
    // A Waiting VC always still buffers its head flit, so it becomes an SA
    // candidate immediately.
    sa_candidates_[static_cast<std::size_t>(p)] |= std::uint64_t{1} << v;
    if (flight_recorder_) {
      flight_recorder_->on_vc_grant(ivc.buffer.front().packet_id, id_, u);
    }
    ivc.out_vc = u;
    ovc.allocated = true;
    ovc.owner_port = p;
    ovc.owner_vc = v;
    ++activity_.vc_alloc_grants;
  }
}

void Router::route_computation() {
  for (const int p : wired_in_) {
    auto& ip = in_[static_cast<std::size_t>(p)];
    for (auto& ivc : ip.vcs) {
      if (ivc.state != VcStateKind::Idle || ivc.buffer.empty()) continue;
      Flit& head = ivc.buffer.front();
      NOCDVFS_ASSERT(head.head, "non-head flit at the front of an Idle VC");
      const topo::RouteDecision decision = engine_->route(id_, head, *this, false);
      if (decision.out_port < 0) {
        // No surviving route: drain the packet into the drop counters.
        ivc.state = VcStateKind::Drop;
        --rc_pending_;
        ++drop_pending_;
        continue;
      }
      ivc.out_port = decision.out_port;
      ivc.vc_mask = decision.vc_mask;
      if (flight_recorder_) {
        flight_recorder_->on_route(head.packet_id, id_, ivc.out_port);
      }
      NOCDVFS_ASSERT(out_[static_cast<std::size_t>(ivc.out_port)].connected(),
                     "route computed towards an unwired port");
      ivc.wait_cycles = 0;
      ivc.state = VcStateKind::Waiting;
      --rc_pending_;
      ++waiting_count_;
    }
  }
}

int Router::downstream_backlog(int port) const {
  const auto& op = out_[static_cast<std::size_t>(port)];
  int backlog = 0;
  for (const auto& ovc : op.vcs) backlog += cfg_.vc_buffer_depth - ovc.credits;
  return backlog;
}

int Router::buffered_flits() const noexcept {
  int n = 0;
  for (const auto& ip : in_) {
    for (const auto& ivc : ip.vcs) n += static_cast<int>(ivc.buffer.size());
  }
  return n;
}

int Router::output_credits(PortDir port, int vc) const {
  return out_.at(static_cast<std::size_t>(port_index(port)))
      .vcs.at(static_cast<std::size_t>(vc))
      .credits;
}

bool Router::output_vc_allocated(PortDir port, int vc) const {
  return out_.at(static_cast<std::size_t>(port_index(port)))
      .vcs.at(static_cast<std::size_t>(vc))
      .allocated;
}

VcStateKind Router::input_vc_state(PortDir port, int vc) const {
  return in_.at(static_cast<std::size_t>(port_index(port)))
      .vcs.at(static_cast<std::size_t>(vc))
      .state;
}

int Router::input_vc_occupancy(PortDir port, int vc) const {
  return static_cast<int>(in_.at(static_cast<std::size_t>(port_index(port)))
                              .vcs.at(static_cast<std::size_t>(vc))
                              .buffer.size());
}

}  // namespace nocdvfs::noc
