#pragma once

/// \file allocator.hpp
/// Separable input-first allocator (iSLIP-style, single iteration): the
/// matching engine behind VC allocation. Agents (input VCs) request
/// resources (output VCs); each agent first narrows to one resource via a
/// private rotating pointer, then per-resource round-robin arbiters resolve
/// conflicts. Pointers advance only on a final grant, preserving the
/// starvation-freedom argument of iSLIP.
///
/// Stage 1 runs as the requests arrive: each agent keeps only its best
/// request so far (the one nearest at/after its pointer), so the allocator
/// stores one int per agent and allocates nothing per request.

#include <utility>
#include <vector>

namespace nocdvfs::noc {

class SeparableAllocator {
 public:
  SeparableAllocator(int num_agents, int num_resources);


  /// Register that `agent` could use `resource` this cycle.
  void add_request(int agent, int resource);

  /// Run one allocation round; returns (agent, resource) grants. Each agent
  /// receives at most one resource and vice versa. Requests are consumed.
  const std::vector<std::pair<int, int>>& allocate();

  void clear_requests();

 private:
  int num_agents_;
  int num_resources_;
  std::vector<int> agent_choice_;    ///< per agent: stage-1 pick this round (-1 = none)
  std::vector<int> active_agents_;   ///< agents with requests, in first-request order
  std::vector<int> agent_ptr_;                 ///< per-agent rotating resource pointer
  std::vector<int> resource_ptr_;              ///< per-resource rotating agent pointer
  std::vector<int> resource_winner_;           ///< scratch: chosen agent per resource
  std::vector<int> resource_claimants_;        ///< scratch: resources contended this cycle
  std::vector<std::pair<int, int>> grants_;
};

}  // namespace nocdvfs::noc
