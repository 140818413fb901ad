#include "sim/cluster.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/assert.h"

namespace gc {

Cluster::Cluster(const ClusterOptions& options, EventQueue* queue)
    : ServerPool(queue, options.transition, options.initial_speed),
      dispatcher_(options.dispatch, Rng(options.dispatch_seed, /*stream=*/3)),
      group_rng_(options.dispatch_seed, /*stream=*/5) {

  // Normalize to group form: the homogeneous fields describe one group.
  std::vector<ServerGroupSpec> groups = options.groups;
  if (groups.empty()) {
    if (options.num_servers == 0) {
      throw std::invalid_argument("ClusterOptions: num_servers == 0");
    }
    if (options.initial_active == 0 || options.initial_active > options.num_servers) {
      throw std::invalid_argument(
          "ClusterOptions: need 1 <= initial_active <= num_servers");
    }
    ServerGroupSpec spec;
    spec.count = options.num_servers;
    spec.power = options.power;
    spec.rate_scale = 1.0;
    spec.initial_active = options.initial_active;
    spec.initial_speed = options.initial_speed;
    groups.push_back(spec);
  }

  std::size_t total = 0;
  for (const ServerGroupSpec& g : groups) {
    if (g.count == 0) throw std::invalid_argument("ServerGroupSpec: empty group");
    if (g.initial_active > g.count) {
      throw std::invalid_argument("ServerGroupSpec: initial_active > count");
    }
    if (!(g.initial_speed > 0.0 && g.initial_speed <= 1.0)) {
      throw std::invalid_argument("ServerGroupSpec: initial_speed out of (0,1]");
    }
    if (!(g.rate_scale > 0.0)) {
      throw std::invalid_argument("ServerGroupSpec: rate_scale must be positive");
    }
    total += g.count;
  }
  bool any_active = false;
  for (const ServerGroupSpec& g : groups) any_active |= g.initial_active > 0;
  if (!any_active) {
    throw std::invalid_argument("ClusterOptions: at least one server must start ON");
  }

  power_models_.reserve(groups.size());
  group_sizes_.reserve(groups.size());
  server_group_.reserve(total);
  reserve(total);
  std::uint32_t index = 0;
  std::uint32_t group_id = 0;
  for (const ServerGroupSpec& g : groups) {
    power_models_.emplace_back(g.power);  // reserved: addresses are stable
    group_sizes_.push_back(g.count);
    for (std::uint32_t i = 0; i < g.count; ++i, ++index) {
      server_group_.push_back(group_id);
      add(index, &power_models_.back(), g.initial_speed,
                /*initially_on=*/i < g.initial_active, g.rate_scale);
    }
    ++group_id;
  }
}

std::pair<std::uint32_t, std::uint32_t> Cluster::group_range(std::size_t group) const {
  GC_CHECK(group < group_sizes_.size(), "Cluster: group index out of range");
  std::uint32_t begin = 0;
  for (std::size_t g = 0; g < group; ++g) begin += group_sizes_[g];
  return {begin, begin + group_sizes_[group]};
}

unsigned Cluster::group_size(std::size_t group) const {
  GC_CHECK(group < group_sizes_.size(), "Cluster: group index out of range");
  return group_sizes_[group];
}

std::uint32_t Cluster::group_of(std::uint32_t server) const {
  GC_CHECK(server < server_group_.size(), "Cluster: server index out of range");
  return server_group_[server];
}

std::span<const std::uint32_t> Cluster::serving_in(std::uint32_t begin,
                                                  std::uint32_t end) const {
  // The serving list is sorted and group ranges are contiguous, so the
  // range's serving set is one slice of it.
  const std::span<const std::uint32_t> list = serving();
  const auto lo = std::lower_bound(list.begin(), list.end(), begin);
  const auto hi = std::lower_bound(lo, list.end(), end);
  return {lo, hi};
}

unsigned Cluster::group_serving_count(std::size_t group) const {
  const auto [begin, end] = group_range(group);
  return static_cast<unsigned>(serving_in(begin, end).size());
}

void Cluster::set_group_speed(double now, std::size_t group, double speed) {
  const auto [begin, end] = group_range(group);
  set_speed(now, begin, end, speed);
}

bool Cluster::route_job_to_group(double now, std::size_t group, const Job& job) {
  const auto [begin, end] = group_range(group);
  // Random pick among the group's serving servers (matches the per-class
  // random-split M/M/1 model the hetero solver assumes): the k-th entry of
  // the group's serving slice.
  const std::span<const std::uint32_t> serving = serving_in(begin, end);
  if (serving.empty()) {
    ++jobs_dropped_;
    return false;
  }
  const std::uint64_t pick = group_rng_.uniform_below(serving.size());
  enqueue(now, serving[pick], job);
  return true;
}

void Cluster::set_group_active_target(double now, std::size_t group, unsigned target) {
  const auto [begin, end] = group_range(group);
  unsigned committed = group_serving_count(group);
  for (std::uint32_t i = begin; i < end; ++i) {
    committed += server(i).state() == PowerState::kBooting ? 1 : 0;
  }
  reconcile_range(now, begin, end, committed, std::min(target, group_sizes_[group]));
}

void Cluster::set_active_target(double now, unsigned target) {
  target = std::clamp(target, 1u, num_servers());
  reconcile_range(now, 0, num_servers(), committed_count(), target);
}

void Cluster::reconcile_range(double now, std::uint32_t begin, std::uint32_t end,
                              unsigned committed, unsigned target) {
  if (target > committed) {
    // 1) Revive draining servers — they are still hot.
    for (std::uint32_t i = begin; i < end && committed < target; ++i) {
      const Server& s = server(i);
      if (s.state() == PowerState::kOn && s.draining()) {
        revive(now, i);
        ++committed;
      }
    }
    // 2) Boot OFF servers.
    for (std::uint32_t i = begin; i < end && committed < target; ++i) {
      if (server(i).state() == PowerState::kOff) {
        boot(now, i);
        ++committed;
      }
    }
    // If we ran out of OFF servers the remainder are SHUTTING_DOWN; they
    // will be re-booted by a later decision once OFF.  Nothing to do.
    return;
  }

  // Drain serving servers with the least outstanding work first, but never
  // below one serving server cluster-wide (a reduction to zero in one
  // *group* of a hetero cluster is allowed when target == 0 there, as long
  // as another group still serves).  Candidates come off the serving list:
  // the same ascending order a full range scan would visit.
  for (unsigned excess = committed > target ? committed - target : 0; excess > 0;
       --excess) {
    // Never drain the last serving server: booting capacity cannot take
    // traffic yet, and a cluster with zero serving servers drops jobs.
    if (serving_count() <= 1) break;
    long victim = -1;
    double least_work = std::numeric_limits<double>::infinity();
    for (const std::uint32_t i : serving_in(begin, end)) {
      const double work = server(i).outstanding_work(now);
      if (work < least_work) {
        least_work = work;
        victim = i;
      }
    }
    if (victim < 0) break;  // only booting servers left; let them land
    drain(now, static_cast<std::uint32_t>(victim));
  }
}

bool Cluster::place(double now, const Job& job) {
  const long target = dispatcher_.pick(now, servers(), serving());
  if (target >= 0) enqueue(now, static_cast<std::uint32_t>(target), job);
  return target >= 0;
}

bool Cluster::route_job(double now, const Job& job) {
  const bool placed = place(now, job);
  if (!placed) ++jobs_dropped_;
  return placed;
}

bool Cluster::handle_fault_event(double now, EventType type, std::uint32_t server) {
  return ServerPool::handle_fault_event(now, type, server, [&](std::vector<Job>& orphans) {
    // Fail the orphans over to surviving serving servers; with none left
    // the jobs are lost (distinct from admission-time drops).
    for (Job& job : orphans) {
      // A job can be caught exactly at its completion instant (crash and
      // departure tie on time); give it a vanishing sliver of work so the
      // enqueue invariant (remaining > 0) holds and it finishes at once on
      // the failover server.
      job.remaining = std::max(job.remaining, 1e-12);
      place(now, job) ? ++jobs_redispatched_ : ++jobs_lost_;
    }
  });
}

}  // namespace gc
