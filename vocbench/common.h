#ifndef VOCBENCH_COMMON_H_
#define VOCBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: run arguments, the
// clock, exact percentiles over the benchmark's own samples, per-layer
// accumulators for the traced run, and the result line.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vocbench {

using Clock = std::chrono::steady_clock;

// Captured during static initialisation, before main(): the reference
// point of setup_s.
Clock::time_point ProcessStart();

double SecondsSince(Clock::time_point t);
double MillisSince(Clock::time_point t);
double MicrosSince(Clock::time_point t);

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory the run may write to (WAL, checkpoints); removed at exit.
  std::string scratch_dir;
  // Worker threads and client connections the load may use.
  std::size_t threads = 4;
};

// Exact nearest-rank percentile (p in [0,1]) of `samples`; 0 if empty.
double Percentile(std::vector<double> samples, double p);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Derives an independent 64-bit seed for one input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Running sum of one per-layer quantity (time or count) and the number
// of operations it covers; Mean() is the per-operation figure.
struct Accum {
  double sum = 0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  void Merge(const Accum& o) {
    sum += o.sum;
    n += o.n;
  }
  double Mean() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

// Outcome of one workload pass: correctness, operation accounting and
// the metrics it measured. Every failed check is kept with its reason
// and printed to stderr.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what);
  void Add(std::string name, double value, std::string unit);
  double Get(const std::string& name) const;  // NaN when absent
  void Merge(const Outcome& other);  // accounting and checks only
};

// Prints `outcome` as the final JSON line on stdout.
void PrintResult(const Outcome& outcome);

// Formats a double with the shortest round-trip representation.
std::string FormatDouble(double v);

}  // namespace vocbench

#endif  // VOCBENCH_COMMON_H_
