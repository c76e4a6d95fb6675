// Two-clock benchmark binary.
//
//   perfbench --workload <serve_word|cluster_hot|analytics_tpch>
//             --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--small]
//
// Prints one human-readable line per metric, then, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (README.md). Exits 1 when an output oracle
// or a simulator-only guard fails, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Host threads the simulator may use: fixed, so host timings do not
/// depend on the machine's core count beyond it.
constexpr std::size_t kHostThreads = 4;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_word|cluster_hot|analytics_tpch> --seed <n> "
               "--seconds <s> --trace <0|1> [--threads <n>] [--small]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0')
    usage((std::string("bad value for ") + flag).c_str());
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seconds = false, have_trace = false;
  std::size_t threads = std::min<std::size_t>(
      kHostThreads, std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--small") == 0) {
      opt.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = parse_u64(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--threads") == 0) {
      threads = parse_u64(flag, value);
      if (threads == 0) usage("--threads must be at least 1");
    } else {
      usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!have_seconds || !have_trace) usage("--seconds and --trace are required");
  apim::util::set_thread_count(threads);

  perfbench::Report report;
  try {
    if (opt.workload == "serve_word") {
      report = perfbench::run_serve_word(opt);
    } else if (opt.workload == "cluster_hot") {
      report = perfbench::run_cluster_hot(opt);
    } else if (opt.workload == "analytics_tpch") {
      report = perfbench::run_analytics_tpch(opt);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }

  for (const std::string& v : report.violations())
    std::printf("VIOLATION: %s\n", v.c_str());
  for (const auto& m : report.metrics())
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = report.violations().empty() && !report.metrics().empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const auto& m = report.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
