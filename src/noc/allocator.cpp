#include "noc/allocator.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace nocdvfs::noc {

SeparableAllocator::SeparableAllocator(int num_agents, int num_resources)
    : num_agents_(num_agents), num_resources_(num_resources) {
  if (num_agents <= 0 || num_resources <= 0) {
    throw std::invalid_argument("SeparableAllocator: sizes must be positive");
  }
  agent_choice_.assign(static_cast<std::size_t>(num_agents), -1);
  agent_ptr_.assign(static_cast<std::size_t>(num_agents), 0);
  resource_ptr_.assign(static_cast<std::size_t>(num_resources), 0);
  resource_winner_.assign(static_cast<std::size_t>(num_resources), -1);
  active_agents_.reserve(static_cast<std::size_t>(num_agents));
  resource_claimants_.reserve(static_cast<std::size_t>(num_resources));
}

void SeparableAllocator::add_request(int agent, int resource) {
  NOCDVFS_ASSERT(agent >= 0 && agent < num_agents_, "allocator agent out of range");
  NOCDVFS_ASSERT(resource >= 0 && resource < num_resources_, "allocator resource out of range");
  // Stage 1 (input arbitration), incrementally: the agent keeps the
  // requested resource closest at-or-after its rotating pointer; on a tie
  // (a repeated request) the earlier one stays.
  int& choice = agent_choice_[static_cast<std::size_t>(agent)];
  if (choice < 0) {
    active_agents_.push_back(agent);
    choice = resource;
    return;
  }
  const int ptr = agent_ptr_[static_cast<std::size_t>(agent)];
  const int d_new = (resource - ptr + num_resources_) % num_resources_;
  const int d_old = (choice - ptr + num_resources_) % num_resources_;
  if (d_new < d_old) choice = resource;
}

const std::vector<std::pair<int, int>>& SeparableAllocator::allocate() {
  grants_.clear();

  // Stage 2 (output arbitration): each contended resource picks the agent
  // closest at-or-after its rotating pointer among stage-1 claimants.
  for (int agent : active_agents_) {
    const int best = agent_choice_[static_cast<std::size_t>(agent)];
    NOCDVFS_ASSERT(best >= 0, "active agent without requests");
    // Record the claim on the chosen resource.
    const auto rbest = static_cast<std::size_t>(best);
    if (resource_winner_[rbest] == -1) {
      resource_winner_[rbest] = agent;
      resource_claimants_.push_back(best);
    } else {
      // Contention: keep the agent nearest the resource's rotating pointer.
      const int incumbent = resource_winner_[rbest];
      const int rptr = resource_ptr_[rbest];
      const int d_new = (agent - rptr + num_agents_) % num_agents_;
      const int d_old = (incumbent - rptr + num_agents_) % num_agents_;
      if (d_new < d_old) resource_winner_[rbest] = agent;
    }
  }

  for (int resource : resource_claimants_) {
    const int agent = resource_winner_[static_cast<std::size_t>(resource)];
    NOCDVFS_ASSERT(agent >= 0, "claimed resource without winner");
    grants_.emplace_back(agent, resource);
    // iSLIP pointer update: only on grant, move past the served party.
    agent_ptr_[static_cast<std::size_t>(agent)] = (resource + 1) % num_resources_;
    resource_ptr_[static_cast<std::size_t>(resource)] = (agent + 1) % num_agents_;
    resource_winner_[static_cast<std::size_t>(resource)] = -1;
  }
  resource_claimants_.clear();

  for (int agent : active_agents_) agent_choice_[static_cast<std::size_t>(agent)] = -1;
  active_agents_.clear();
  return grants_;
}

void SeparableAllocator::clear_requests() {
  for (int agent : active_agents_) agent_choice_[static_cast<std::size_t>(agent)] = -1;
  active_agents_.clear();
  for (int resource : resource_claimants_) {
    resource_winner_[static_cast<std::size_t>(resource)] = -1;
  }
  resource_claimants_.clear();
}

}  // namespace nocdvfs::noc
