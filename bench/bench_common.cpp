#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "analysis/trace_check.hpp"
#include "serve/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace apim::bench {

void ShapeChecker::check(const std::string& name, bool ok) {
  entries_.push_back(Entry{name, ok});
}

void ShapeChecker::check_range(const std::string& name, double value,
                               double lo, double hi) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s (%.3g in [%.3g, %.3g])", name.c_str(),
                value, lo, hi);
  check(buf, value >= lo && value <= hi);
}

int ShapeChecker::finish() const {
  std::puts("\nShape checks:");
  for (const Entry& e : entries_)
    std::printf("  [%s] %s\n", e.ok ? "PASS" : "FAIL", e.name.c_str());
  const bool all_ok = all_passed();
  std::printf("%s\n", all_ok ? "ALL SHAPE CHECKS PASSED"
                             : "SHAPE CHECK FAILURES PRESENT");
  return all_ok ? 0 : 1;
}

bool ShapeChecker::all_passed() const {
  for (const Entry& e : entries_)
    if (!e.ok) return false;
  return true;
}

util::JsonValue ShapeChecker::to_json() const {
  util::JsonValue checks = util::JsonValue::array();
  for (const Entry& e : entries_) {
    util::JsonValue check = util::JsonValue::object();
    check.set("name", e.name);
    check.set("ok", e.ok);
    checks.append(std::move(check));
  }
  return checks;
}

std::size_t configure_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    }
    if (value) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(value, &end, 10);
      if (end != value && parsed >= 1) {
        util::set_thread_count(static_cast<std::size_t>(parsed));
        break;
      }
      std::fprintf(stderr, "ignoring malformed --threads value '%s'\n",
                   value);
    }
  }
  return util::configured_thread_count();
}

std::string json_output_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) return arg + 7;
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) return argv[i + 1];
  }
  return {};
}

std::string trace_output_path(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) return arg + 8;
    if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) return argv[i + 1];
  }
  return {};
}

void finish_trace_capture(const std::string& path,
                          const serve::trace::EventLog& log,
                          ShapeChecker& checker) {
  if (path.empty()) return;
  checker.check("captured event trace is complete (no overflow)",
                !log.overflowed());
  const std::string verdict = analysis::verify_trace(log);
  if (!verdict.empty()) std::printf("%s", verdict.c_str());
  checker.check("captured event trace replays clean (trace_check)",
                verdict.empty());
  std::ofstream out(path);
  out << log.serialize();
  if (out)
    std::printf("Wrote %s (%zu events)\n", path.c_str(),
                log.events().size());
  else
    std::printf("WARNING: cannot write trace to %s\n", path.c_str());
}

std::string csv_output_path(int argc, char** argv,
                            const std::string& default_name) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) return arg + 6;
    if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) return argv[i + 1];
  }
  return default_name;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

void write_json_report(const std::string& path,
                       const util::JsonValue& report) {
  if (path.empty()) return;
  if (report.write_file(path))
    std::printf("Wrote %s\n", path.c_str());
  else
    std::fprintf(stderr, "warning: could not write JSON report to %s\n",
                 path.c_str());
}

double reference_unit_s() {
  struct Step {
    unsigned char in[3];
    unsigned char arity;
    unsigned char dst;
  };
  static constexpr Step kSteps[12] = {
      {{0, 1, 0}, 2, 3},    {{0, 2, 0}, 2, 4},   {{1, 2, 0}, 2, 5},
      {{3, 4, 5}, 3, 6},    {{0, 1, 2}, 3, 7},   {{6, 7, 0}, 2, 8},
      {{3, 8, 0}, 2, 9},    {{4, 8, 0}, 2, 10},  {{5, 8, 0}, 2, 11},
      {{9, 10, 11}, 3, 12}, {{6, 12, 0}, 2, 13}, {{7, 13, 0}, 2, 14}};
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  double energy = 0.0;
  for (int bit = 0; bit < 300000; ++bit) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t slot[16] = {x & 1, (x >> 1) & 1, (x >> 2) & 1};
    for (const Step& step : kSteps) {
      std::uint64_t any = 0;
      int ones = 0;
      for (unsigned i = 0; i < step.arity; ++i) {
        any |= slot[step.in[i]];
        ones += static_cast<int>(slot[step.in[i]]);
      }
      slot[step.dst] = any ^ 1u;
      energy += ones * 0.013 + (step.arity - ones) * 0.007 +
                (any == 0 ? 0.0 : 0.05);
    }
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  if (energy < 0.0) std::printf("unreachable\n");  // Keeps the loop live.
  return s;
}

double AppSample::seconds_per_element(std::size_t lanes) const {
  return cycles_per_element * util::kMagicCycleNs * 1e-9 /
         static_cast<double>(lanes);
}

double AppSample::edp_per_element_js(std::size_t lanes) const {
  return energy_pj_per_element * 1e-12 * seconds_per_element(lanes);
}

AppSample sample_app(const apps::Application& app, unsigned relax_bits) {
  core::ApimConfig cfg;
  cfg.approx.relax_bits = relax_bits;
  core::ApimDevice device{cfg};
  const auto golden = app.run_golden();
  const auto output = app.run_apim(device);
  const auto eval = quality::evaluate_qos(app.qos(), golden, output);

  AppSample sample;
  sample.elements = app.element_count();
  const auto elements = static_cast<double>(sample.elements);
  sample.cycles_per_element =
      static_cast<double>(device.stats().cycles) / elements;
  sample.energy_pj_per_element = device.energy_pj() / elements;
  sample.loss = eval.loss;
  sample.metric = eval.metric;
  sample.acceptable = eval.acceptable;
  return sample;
}

}  // namespace apim::bench
