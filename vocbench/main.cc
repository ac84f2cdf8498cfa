// The end-to-end benchmark of BIVoC. Usage:
//
//   vocbench --workload <voice_calls|telecom_messages|live_dashboard>
//            --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//   vocbench --self-test
//
// Untraced, it runs one workload and prints the end-to-end metrics;
// traced, it drives the inputs of all three workloads through the
// public call of each layer and prints the per-layer metrics. The last
// line of stdout is the JSON result; the exit code is 0 only when every
// check passed.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "checks.h"
#include "common.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

using namespace vocbench;

// A run that has not finished by then is stuck: give up without a
// result rather than outlive the harness's limit.
constexpr int kWatchdogSeconds = 170;

int Usage() {
  std::fprintf(stderr,
               "usage: vocbench --workload <voice_calls|telecom_messages|"
               "live_dashboard> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir>\n       vocbench --self-test\n");
  return 2;
}

bool RunSelfTest() {
  const std::vector<std::string> failures = SelfTest();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  }
  return failures.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.scratch_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const bool ok = RunSelfTest();
      std::fprintf(stderr, "self-test %s\n", ok ? "passed" : "FAILED");
      return ok ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.seconds <= 0) return Usage();

  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(kWatchdogSeconds));
    std::fprintf(stderr, "vocbench: watchdog expired, giving up\n");
    _exit(3);
  }).detach();

  // Quiet the program's info logging; warnings and errors still show.
  bivoc::SetLogLevel(bivoc::LogLevel::kWarning);
  args.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::filesystem::create_directories(args.scratch_dir);

  // The checkers vouch for the program's outputs, so they prove
  // themselves on hand-made cases first.
  if (!RunSelfTest()) return 1;

  using Runner = Outcome (*)(const RunArgs&);
  const std::pair<const char*, Runner> workloads[] = {
      {"voice_calls", &RunVoiceCalls},
      {"telecom_messages", &RunTelecomMessages},
      {"live_dashboard", &RunLiveDashboard},
  };
  Runner selected = nullptr;
  for (const auto& [name, run] : workloads) {
    if (args.workload == name) selected = run;
  }
  if (selected == nullptr) return Usage();

  Outcome result;
  if (!args.trace) {
    result = selected(args);
  } else {
    // Every layer is driven by one of the workloads, so the traced run
    // covers all three, a third of the time each.
    RunArgs part = args;
    part.seconds = args.seconds / 3.0;
    for (const auto& [name, run] : workloads) {
      part.workload = name;
      Outcome o = run(part);
      result.Merge(o);
      result.metrics.insert(result.metrics.end(), o.metrics.begin(),
                            o.metrics.end());
    }
  }
  PrintResult(result);
  return result.correct ? 0 : 1;
}
