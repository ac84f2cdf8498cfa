// live_dashboard: everything goes through the HTTP gateway. The index
// is preloaded at set-up with documents carrying structured keys the
// benchmark generated (and tallied); then report queries and live-call
// utterances run side by side over the wire. The only workload where
// serve, net, stream and the mining read path do the work.

#include <cstdio>

#include "checks.h"
#include "core/bivoc.h"
#include "dashboard.h"
#include "util/random.h"
#include "workloads.h"

namespace vocbench {

using namespace bivoc;

namespace {

constexpr std::size_t kPreloadDocs = 200000;
constexpr std::size_t kPreloadBatch = 10000;
constexpr int kRegions = 12;
constexpr int kProducts = 40;
constexpr int kAgents = 60;
constexpr int kDays = 60;
const char* const kOutcomes[] = {"outcome/retained", "outcome/churned",
                                 "outcome/upgraded", "outcome/complaint"};
const double kOutcomeWeights[] = {0.55, 0.15, 0.2, 0.1};

// Zipf-like draw over [0, n): rank r with weight 1/(r+1).
int SkewedIndex(int n, Rng* rng) {
  double total = 0;
  for (int r = 0; r < n; ++r) total += 1.0 / (r + 1);
  double u = rng->NextDouble() * total;
  for (int r = 0; r < n; ++r) {
    u -= 1.0 / (r + 1);
    if (u <= 0) return r;
  }
  return n - 1;
}

std::vector<std::string> DrawKeys(Rng* rng) {
  std::vector<std::string> keys;
  keys.push_back("region/r" + std::to_string(SkewedIndex(kRegions, rng)));
  const int first = SkewedIndex(kProducts, rng);
  keys.push_back("product/p" + std::to_string(first));
  if (rng->NextDouble() < 0.4) {
    const int second = SkewedIndex(kProducts, rng);
    if (second != first) keys.push_back("product/p" + std::to_string(second));
  }
  double u = rng->NextDouble();
  std::size_t o = 0;
  while (o + 1 < std::size(kOutcomes) && u >= kOutcomeWeights[o]) {
    u -= kOutcomeWeights[o];
    ++o;
  }
  keys.push_back(kOutcomes[o]);
  keys.push_back("agent/a" + std::to_string(rng->Uniform(0, kAgents - 1)));
  keys.push_back(rng->NextDouble() < 0.7 ? "plan/prepaid" : "plan/postpaid");
  return keys;
}

}  // namespace

Outcome RunLiveDashboard(const RunArgs& args) {
  Outcome out;

  // --- set-up: preload the index, start the gateway ---------------------
  BivocEngine engine;
  // One ingest thread during the preload keeps DocIds in submission
  // order, so drill-down answers can be compared id by id.
  IngestOptions preload_options;
  preload_options.num_threads = 1;
  engine.ConfigureIngest(preload_options);
  const uint16_t port = StartDashboard(&engine, true);
  out.Check(port != 0, "dashboard: gateway started");

  KeyTally tally;
  Rng rng(SubSeed(args.seed, 30));
  std::size_t preloaded = 0;
  for (std::size_t start = 0; start < kPreloadDocs; start += kPreloadBatch) {
    std::vector<IngestItem> items;
    for (std::size_t i = start; i < std::min(kPreloadDocs, start + kPreloadBatch);
         ++i) {
      IngestItem item;
      item.channel = VocChannel::kCall;
      item.time_bucket = rng.Uniform(0, kDays - 1);
      item.structured_keys = DrawKeys(&rng);
      tally.Add(i, item.structured_keys);
      items.push_back(std::move(item));
    }
    HealthReport report = engine.IngestBatch(items);
    preloaded += report.processed;
    out.Check(report.dead_lettered == 0, "dashboard: preload batch ingested");
  }
  out.Check(preloaded == kPreloadDocs &&
                engine.Snapshot()->num_documents() == kPreloadDocs,
            "dashboard: preload indexed every document");
  const double setup_s = SecondsSince(ProcessStart());

  // --- timed: queries and utterances over HTTP --------------------------
  DashboardKeys keys;
  for (int p = 0; p < kProducts; ++p) {
    keys.rows.push_back("product/p" + std::to_string(p));
  }
  for (const char* o : kOutcomes) keys.cols.push_back(o);
  keys.cols.push_back("plan/prepaid");
  keys.cols.push_back("plan/postpaid");
  keys.row_prefix = "product/";
  keys.tally = &tally;
  keys.ids_match = true;
  DashboardOptions dash;
  dash.seed = SubSeed(args.seed, 31);
  dash.open_seconds = args.seconds * 0.3;
  dash.query_closed_seconds = args.seconds * 0.35;
  dash.utterance_closed_seconds = args.seconds * 0.35;
  dash.check_window = true;
  dash.trace = args.trace;
  DashboardResult dr = RunDashboard(&engine, port, keys, dash, &out);
  engine.StopGateway();
  std::fprintf(stderr, "live_dashboard: %zu documents at the end\n",
               engine.Snapshot()->num_documents());

  if (args.trace) {
    Outcome e2e;
    AddDashboardMetrics(dr, &e2e);
    std::fprintf(stderr, "live_dashboard traced: docs_per_s %.4f, qps %.1f\n",
                 dr.closes_per_s, e2e.Get("query_qps"));
    AddDashboardLayerMetrics(dr, &out);
    return out;
  }
  out.Add("setup_s", setup_s, "s");
  out.Add("docs_per_s", dr.closes_per_s, "docs/s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  AddDashboardMetrics(dr, &out);
  return out;
}

}  // namespace vocbench
