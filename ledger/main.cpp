// The admission-ledger benchmark driver.  ledger/run.py builds and runs
// it; see ledger/README.md.
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--ops <n>] [--tiny] [--trace-out <file>]
//
// Prints one line per operation kind, the exact work counts of a traced
// run, and, last, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.  Exits 1 when an output check
// failed and 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "ledger.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--ops <n>] [--tiny] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--tiny") {
        o.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--ops") {
        o.ops = std::stoull(v);
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");

  ledger::Result r;
  try {
    r = ledger::run(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: run aborted: %s\n", e.what());
    return 1;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : r.ops) {
    std::printf("op %-8s attempted=%llu failed=%llu rejected=%llu\n",
                kind.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.rejected));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const auto& [name, n] : r.work)
    std::printf("work %s=%llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  for (const std::string& v : r.violations)
    std::fprintf(stderr, "check failed: %s\n", v.c_str());

  const bool correct = r.violations.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += json_string(name) + ": {\"value\": " + num +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
