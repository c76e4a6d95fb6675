#include "serve/load_gen.hpp"

#include <cassert>
#include <cmath>

#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace apim::serve {

std::vector<Request> make_open_loop_trace(const LoadGenConfig& cfg) {
  assert(cfg.rate_per_kcycle > 0.0);
  assert(cfg.min_ops >= 1 && cfg.min_ops <= cfg.max_ops);
  util::Xoshiro256 rng(cfg.seed);
  std::vector<Request> trace;
  trace.reserve(cfg.requests);

  const double mean_gap_cycles = 1000.0 / cfg.rate_per_kcycle;
  const std::uint64_t operand_mask = util::mask_n(cfg.width);
  double clock = 0.0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    // Exponential interarrival: -ln(1 - U) * mean. next_double() < 1, so
    // the log argument stays positive.
    clock += -std::log(1.0 - rng.next_double()) * mean_gap_cycles;

    Request r;
    r.arrival = static_cast<util::Cycles>(clock);
    r.app = cfg.apps.empty()
                ? std::string{}
                : cfg.apps[rng.next_below(cfg.apps.size())];
    r.op = rng.next_double() < cfg.add_fraction ? OpKind::kVectorAdd
                                                : OpKind::kMultiply;
    r.width = cfg.width;
    r.qos = cfg.qos;
    r.deadline = cfg.deadline;
    r.policy = cfg.policy;
    const std::size_t ops =
        cfg.min_ops +
        (cfg.max_ops > cfg.min_ops
             ? rng.next_below(cfg.max_ops - cfg.min_ops + 1)
             : 0);
    r.operands.reserve(ops);
    for (std::size_t j = 0; j < ops; ++j)
      r.operands.emplace_back(rng.next() & operand_mask,
                              rng.next() & operand_mask);
    trace.push_back(std::move(r));
  }
  return trace;
}

std::vector<Response> run_closed_loop(
    Server& server, std::size_t clients, std::size_t requests_per_client,
    util::Cycles think_cycles,
    const std::function<Request(std::size_t, std::size_t)>& make_request) {
  struct Client {
    std::uint64_t id = 0;  ///< The client's outstanding request.
    std::size_t index = 0;
    bool done = false;
  };
  std::vector<std::uint64_t> ids;
  ids.reserve(clients * requests_per_client);
  const auto stage = [&](std::size_t client, std::size_t index,
                         util::Cycles arrival) {
    Request r = make_request(client, index);
    r.arrival = arrival;
    ids.push_back(server.stage_request(std::move(r)));
    return Client{ids.back(), index};
  };

  std::vector<Client> live;
  if (requests_per_client > 0) {
    live.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      live.push_back(stage(c, 0, server.virtual_now()));
  }
  while (const auto t = server.next_event_at()) {
    server.step_until(*t);
    for (std::size_t c = 0; c < live.size(); ++c) {
      Client& client = live[c];
      if (client.done) continue;
      const Response& r = server.response(client.id);
      if (r.status == RequestStatus::kPending) continue;
      if (client.index + 1 < requests_per_client) {
        client = stage(c, client.index + 1, r.completion + think_cycles);
      } else {
        client.done = true;
      }
    }
  }

  std::vector<Response> responses;
  responses.reserve(ids.size());
  for (const std::uint64_t id : ids) responses.push_back(server.response(id));
  return responses;
}

}  // namespace apim::serve
