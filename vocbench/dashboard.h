#ifndef VOCBENCH_DASHBOARD_H_
#define VOCBENCH_DASHBOARD_H_

// The dashboard phase: report queries on POST /v1/query and live-call
// utterances on POST /v1/stream/utterance, both over the loopback HTTP
// gateway. First both streams run open loop, at fixed offered rates,
// each request timed from its intended send time. Then the queries
// send back to back (closed loop) while utterances keep their offered
// rate, to find the query saturation rate; optionally the utterances
// then do the same while queries keep theirs.
//
// Requests are generated as they are sent and answers are checked as
// they arrive, so the phase holds no request or reply buffers of its
// own: peak RSS stays the program's.

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/bivoc.h"

namespace vocbench {

// The structured keys the queries are drawn from.
struct DashboardKeys {
  std::vector<std::string> rows;  // association rows, drill-down first key
  std::vector<std::string> cols;  // association columns, relevancy features
  std::string row_prefix;         // relevancy / trend / search prefix
  // Exact per-key tally of every indexed document when the benchmark
  // knows it; nullptr leaves only the structural checks and Eqn 4.
  const KeyTally* tally = nullptr;
  // Document ids in the tally equal the program's DocIds (sequential
  // preload), so drill-down hits are compared id by id.
  bool ids_match = false;
};

struct DashboardOptions {
  uint64_t seed = 1;
  double open_seconds = 5;
  double query_closed_seconds = 2;
  // 0 leaves out the utterance closed loop.
  double utterance_closed_seconds = 0;
  // false: queries only, no utterance connection.
  bool utterances = true;
  // Compare window trend totals with the utterances sent (needs the
  // driver's dictionary to be the only source of its concept keys).
  bool check_window = false;
  bool trace = false;
};

struct DashboardResult {
  // Open loop, from intended send time, by half-second window.
  std::vector<std::vector<double>> query_windows;
  std::vector<std::vector<double>> append_windows;
  double query_qps = 0;     // query closed loop, median window
  double closes_per_s = 0;  // utterance closed loop: calls folded per second
  double max_lateness_ms = 0;  // generator: worst send behind schedule
  double mean_lateness_ms = 0;
  // Traced run only.
  Accum roundtrip_us;   // HttpClient::Post of a cached answer, quiet
  Accum execute_hit_us;  // ReportServer::Execute of the same, in process
  Accum json_dump_us;   // DumpJson of a request body
  Accum json_parse_us;  // ParseJson of a reply body
  Accum execute_us;     // ReportServer::Execute of a fresh query, in process
  Accum evaluate_us[6];  // EvaluateQuery per QueryClass, in process
  Accum append_us;      // StreamIngestor::Append, no close
  Accum close_us;       // StreamIngestor::Append with close
  Accum publish_ms;     // VocPipeline::PublishIndex after one new document
  double cache_hit_ratio = 0;
  double shed = 0;
  double postings_bytes_per_doc = 0;
};

// Turns streaming on and starts the gateway. With
// `live_driver_concepts`, first registers the live driver's dictionary
// and vocabulary, so its utterances extract as concepts. Call before
// the engine is shared with other threads. Returns the bound port, or
// 0 when streaming or the gateway could not start.
uint16_t StartDashboard(bivoc::BivocEngine* engine, bool live_driver_concepts);

// Runs the dashboard phase against `engine` on `port`. Operation
// accounting and check failures go into `out`.
DashboardResult RunDashboard(bivoc::BivocEngine* engine, uint16_t port,
                             const DashboardKeys& keys,
                             const DashboardOptions& options, Outcome* out);

// The end-to-end latency and rate metrics of the dashboard phase.
void AddDashboardMetrics(const DashboardResult& r, Outcome* out);

// The per-layer metrics of the dashboard phase (traced run).
void AddDashboardLayerMetrics(const DashboardResult& r, Outcome* out);

}  // namespace vocbench

#endif  // VOCBENCH_DASHBOARD_H_
