#include "serve/trace.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace apim::serve::trace {

namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kAdmit, "admit"},
    {EventKind::kBatchSeal, "batch-seal"},
    {EventKind::kDispatch, "dispatch"},
    {EventKind::kComplete, "complete"},
    {EventKind::kAbort, "abort"},
    {EventKind::kServe, "serve"},
    {EventKind::kReject, "reject"},
    {EventKind::kExpire, "expire"},
    {EventKind::kInvalid, "invalid"},
    {EventKind::kCreditGrant, "credit-grant"},
    {EventKind::kCreditSpend, "credit-spend"},
    {EventKind::kCreditRefund, "credit-refund"},
    {EventKind::kQosEscalate, "qos-escalate"},
    {EventKind::kRelocate, "relocate"},
    {EventKind::kHealth, "health"},
    {EventKind::kScrub, "scrub"},
    {EventKind::kClusterAdmit, "cluster-admit"},
    {EventKind::kForward, "forward"},
    {EventKind::kResponseLeg, "response-leg"},
    {EventKind::kMigrationStart, "migration-start"},
    {EventKind::kMigrationCommit, "migration-commit"},
};

/// %.17g round-trips every finite IEEE-754 double exactly.
std::string format_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void put_u64(std::ostringstream& os, const char* key, std::uint64_t value) {
  if (value != 0) os << ' ' << key << '=' << value;
}

void put_i64(std::ostringstream& os, const char* key, std::int64_t value) {
  if (value != -1) os << ' ' << key << '=' << value;
}

void put_flag(std::ostringstream& os, const char* key, bool value) {
  if (value) os << ' ' << key << "=1";
}

struct Token {
  std::string_view key;
  std::string_view value;
};

/// Split "k=v" tokens off a whitespace-separated record body.
bool next_token(std::string_view& rest, Token* out) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (rest.empty()) return false;
  const std::size_t end = rest.find(' ');
  const std::string_view tok =
      end == std::string_view::npos ? rest : rest.substr(0, end);
  rest.remove_prefix(tok.size());
  const std::size_t eq = tok.find('=');
  if (eq == std::string_view::npos) {
    out->key = tok;
    out->value = {};
  } else {
    out->key = tok.substr(0, eq);
    out->value = tok.substr(eq + 1);
  }
  return true;
}

/// Strict numeric read into the destination field's own type. Fails on an
/// empty value, trailing characters, a sign on an unsigned field, and any
/// value outside the field's range; flags take exactly 0 or 1.
template <class T>
bool read(std::string_view v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v != "0" && v != "1") return false;
    *out = v == "1";
    return true;
  } else {
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, *out);
    return ec == std::errc{} && ptr == end;
  }
}

/// Comma-separated request ids; every item must be a valid id.
bool read_members(std::string_view v, std::vector<std::uint64_t>* out) {
  for (;;) {
    const std::size_t comma = v.find(',');
    std::uint64_t id = 0;
    if (!read(v.substr(0, comma), &id)) return false;
    out->push_back(id);
    if (comma == std::string_view::npos) return true;
    v.remove_prefix(comma + 1);
  }
}

}  // namespace

const char* to_string(EventKind kind) noexcept {
  for (const KindName& k : kKindNames)
    if (k.kind == kind) return k.name;
  return "unknown";
}

bool kind_from_string(const std::string& name, EventKind* out) {
  for (const KindName& k : kKindNames) {
    if (name == k.name) {
      *out = k.kind;
      return true;
    }
  }
  return false;
}

std::string EventLog::serialize() const {
  std::ostringstream os;
  os << "apim-trace v1\n";
  os << "meta streams=" << meta.streams << " lanes=" << meta.lanes
     << " queue_capacity=" << meta.queue_capacity
     << " fair_share=" << (meta.fair_share ? 1 : 0)
     << " quantum=" << meta.quantum_ops
     << " default_weight=" << meta.default_weight
     << " health=" << (meta.health ? 1 : 0) << " chips=" << meta.chips
     << " shards=" << meta.shards
     << " topology=" << static_cast<unsigned>(meta.topology)
     << " hop_latency=" << meta.hop_latency_cycles
     << " link_bits=" << meta.link_bits
     << " pj_per_bit_hop=" << format_double(meta.pj_per_bit_hop)
     << " shard_bits=" << meta.shard_bits
     << " overflowed=" << (overflowed_ ? 1 : 0) << '\n';
  for (const auto& [app, weight] : meta.weights)
    os << "weight app=" << app << " w=" << weight << '\n';
  for (const Event& e : events_) {
    os << "event k=" << to_string(e.kind) << " t=" << e.at;
    put_i64(os, "chip", e.chip);
    put_i64(os, "req", e.req);
    if (!e.app.empty()) os << " app=" << e.app;
    put_i64(os, "domain", e.domain);
    put_u64(os, "op", e.op);
    put_u64(os, "width", e.width);
    put_u64(os, "relax", e.relax);
    put_u64(os, "policy", e.policy);
    put_u64(os, "ops", e.ops);
    if (!e.members.empty()) {
      os << " members=";
      for (std::size_t i = 0; i < e.members.size(); ++i) {
        if (i != 0) os << ',';
        os << e.members[i];
      }
    }
    put_u64(os, "amount", e.amount);
    put_u64(os, "deficit", e.deficit_after);
    put_flag(os, "idle", e.idle_reset);
    put_u64(os, "depth", e.queue_depth);
    put_u64(os, "cap", e.capacity);
    put_u64(os, "state_from", e.state_from);
    put_u64(os, "state_to", e.state_to);
    put_flag(os, "dead", e.dead);
    put_flag(os, "clean", e.clean);
    put_flag(os, "offline", e.offline);
    put_u64(os, "stuck", e.stuck);
    put_u64(os, "repaired", e.repaired);
    put_u64(os, "det", e.detections);
    put_u64(os, "esc", e.escalations);
    put_flag(os, "scrub", e.scrub);
    put_i64(os, "from", e.from);
    put_i64(os, "to", e.to);
    put_u64(os, "hops", e.hops);
    put_u64(os, "bits", e.bits);
    put_u64(os, "cycles", e.cycles);
    if (e.energy_pj != 0.0) os << " pj=" << format_double(e.energy_pj);
    put_i64(os, "shard", e.shard);
    os << '\n';
  }
  return os.str();
}

bool EventLog::parse(const std::string& text, EventLog* out,
                     std::string* error) {
  out->clear();
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  if (!std::getline(is, line)) return fail("empty document");
  ++line_no;
  if (line != "apim-trace v1") return fail("bad header (want 'apim-trace v1')");
  const auto bad_value = [&](const Token& t) {
    return fail("bad value '" + std::string(t.value) + "' for key '" +
                std::string(t.key) + "'");
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string_view rest = line;
    Token tok;
    if (!next_token(rest, &tok)) continue;
    if (tok.key == "meta") {
      Meta& m = out->meta;
      while (next_token(rest, &tok)) {
        const std::string_view v = tok.value;
        bool ok = false;
        if (tok.key == "streams") ok = read(v, &m.streams);
        else if (tok.key == "lanes") ok = read(v, &m.lanes);
        else if (tok.key == "queue_capacity") ok = read(v, &m.queue_capacity);
        else if (tok.key == "fair_share") ok = read(v, &m.fair_share);
        else if (tok.key == "quantum") ok = read(v, &m.quantum_ops);
        else if (tok.key == "default_weight") ok = read(v, &m.default_weight);
        else if (tok.key == "health") ok = read(v, &m.health);
        else if (tok.key == "chips") ok = read(v, &m.chips);
        else if (tok.key == "shards") ok = read(v, &m.shards);
        else if (tok.key == "topology") ok = read(v, &m.topology);
        else if (tok.key == "hop_latency")
          ok = read(v, &m.hop_latency_cycles);
        else if (tok.key == "link_bits") ok = read(v, &m.link_bits);
        else if (tok.key == "pj_per_bit_hop") ok = read(v, &m.pj_per_bit_hop);
        else if (tok.key == "shard_bits") ok = read(v, &m.shard_bits);
        else if (tok.key == "overflowed") ok = read(v, &out->overflowed_);
        else
          return fail("unknown meta key '" + std::string(tok.key) + "'");
        if (!ok) return bad_value(tok);
      }
    } else if (tok.key == "weight") {
      std::string app;
      std::uint64_t w = 0;
      while (next_token(rest, &tok)) {
        if (tok.key == "app") app = std::string(tok.value);
        else if (tok.key == "w") {
          if (!read(tok.value, &w)) return bad_value(tok);
        } else
          return fail("unknown weight key '" + std::string(tok.key) + "'");
      }
      if (app.empty()) return fail("weight record without app");
      out->meta.weights[app] = w;
    } else if (tok.key == "event") {
      Event e;
      bool have_kind = false;
      while (next_token(rest, &tok)) {
        const std::string_view v = tok.value;
        bool ok = true;
        if (tok.key == "k") {
          if (!kind_from_string(std::string(v), &e.kind))
            return fail("unknown event kind '" + std::string(v) + "'");
          have_kind = true;
        } else if (tok.key == "app") e.app = std::string(v);
        else if (tok.key == "members") ok = read_members(v, &e.members);
        else if (tok.key == "t") ok = read(v, &e.at);
        else if (tok.key == "chip") ok = read(v, &e.chip);
        else if (tok.key == "req") ok = read(v, &e.req);
        else if (tok.key == "domain") ok = read(v, &e.domain);
        else if (tok.key == "op") ok = read(v, &e.op);
        else if (tok.key == "width") ok = read(v, &e.width);
        else if (tok.key == "relax") ok = read(v, &e.relax);
        else if (tok.key == "policy") ok = read(v, &e.policy);
        else if (tok.key == "ops") ok = read(v, &e.ops);
        else if (tok.key == "amount") ok = read(v, &e.amount);
        else if (tok.key == "deficit") ok = read(v, &e.deficit_after);
        else if (tok.key == "idle") ok = read(v, &e.idle_reset);
        else if (tok.key == "depth") ok = read(v, &e.queue_depth);
        else if (tok.key == "cap") ok = read(v, &e.capacity);
        else if (tok.key == "state_from") ok = read(v, &e.state_from);
        else if (tok.key == "state_to") ok = read(v, &e.state_to);
        else if (tok.key == "dead") ok = read(v, &e.dead);
        else if (tok.key == "clean") ok = read(v, &e.clean);
        else if (tok.key == "offline") ok = read(v, &e.offline);
        else if (tok.key == "stuck") ok = read(v, &e.stuck);
        else if (tok.key == "repaired") ok = read(v, &e.repaired);
        else if (tok.key == "det") ok = read(v, &e.detections);
        else if (tok.key == "esc") ok = read(v, &e.escalations);
        else if (tok.key == "scrub") ok = read(v, &e.scrub);
        else if (tok.key == "from") ok = read(v, &e.from);
        else if (tok.key == "to") ok = read(v, &e.to);
        else if (tok.key == "hops") ok = read(v, &e.hops);
        else if (tok.key == "bits") ok = read(v, &e.bits);
        else if (tok.key == "cycles") ok = read(v, &e.cycles);
        else if (tok.key == "pj") ok = read(v, &e.energy_pj);
        else if (tok.key == "shard") ok = read(v, &e.shard);
        else
          return fail("unknown event key '" + std::string(tok.key) + "'");
        if (!ok) return bad_value(tok);
      }
      if (!have_kind) return fail("event record without kind");
      out->events_.push_back(std::move(e));
    } else {
      return fail("unknown record '" + std::string(tok.key) + "'");
    }
  }
  return true;
}

}  // namespace apim::serve::trace
