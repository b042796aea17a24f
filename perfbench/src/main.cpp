// perfbench: the repo benchmark's program.  perfbench/run.py builds it and
// runs it once per workload and seed:
//
//   perfbench --workload <sweep|tcp> --seed N --seconds S
//             [--delay-at <inject|packet_in|flow_mod|pump_wait|runtime>
//              --delay-ns N] [--trace-file PATH]
//
// The untraced binary prints the end-to-end metrics, the traced one
// (perfbench_traced) the per-layer metrics; both print the correctness
// verdict.  The last line of standard output is the result JSON.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Boundary;

bool parse_boundary(const std::string& s, Boundary& out) {
  if (s == "inject") out = Boundary::kInject;
  else if (s == "packet_in") out = Boundary::kPacketIn;
  else if (s == "flow_mod") out = Boundary::kFlowMod;
  else if (s == "pump_wait") out = Boundary::kPumpWait;
  else if (s == "runtime") out = Boundary::kRuntime;
  else return false;
  return true;
}

void print_metrics(const std::map<std::string, perfbench::Metric>& m) {
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <sweep|tcp> --seed N "
               "--seconds S [--delay-at B --delay-ns N] [--trace-file P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--delay-at") {
      if (!parse_boundary(val, o.delay_at)) return usage();
    } else if (arg == "--delay-ns") {
      o.delay_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (arg == "--trace-file") {
      o.trace_file = val;
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0.0) return usage();
  perfbench::set_options(o);

  perfbench::Result r;
  if (o.workload == "sweep") {
    r = perfbench::run_sweep();
  } else if (o.workload == "tcp") {
    r = perfbench::run_tcp();
  } else {
    return usage();
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& v : r.violations) {
    std::printf("# CHECK FAILED: %s\n", v.c_str());
  }
  if (perfbench::kTraced) {
    // The traced run's own end-to-end numbers: their difference from the
    // untraced runs is the tracing overhead.
    std::printf("# traced end-to-end: {");
    print_metrics(r.metrics);
    std::printf("}\n");
    if (!o.trace_file.empty()) {
      if (perfbench::trace::write_chrome(o.trace_file)) {
        std::printf("# chrome trace: %s (%zu spans)\n", o.trace_file.c_str(),
                    perfbench::trace::raw_spans());
      } else {
        r.fail("cannot write " + o.trace_file);
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(perfbench::kTraced ? r.layer : r.metrics);
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
