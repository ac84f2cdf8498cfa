#include "dashboard.h"

#include <sys/prctl.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/gateway.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/wire.h"
#include "serve/query.h"
#include "stream/ingestor.h"
#include "synth/live_driver.h"
#include "util/random.h"

namespace vocbench {

using namespace bivoc;

namespace {

// Closed-loop and warm-up answers checked: one in this many.
constexpr std::size_t kClosedCheckStride = 8;
// Offered load of the open loop. Neither figure comes from a measured
// deployment; the README gives the reasoning for each:
//  - queries: about a sixth of the closed-loop rate live_dashboard
//    reaches on the reference host, so the open loop measures latency
//    below saturation rather than queueing;
//  - utterances: about 20x the paper's 150 GB/day of call audio, so
//    closes re-publish the index often enough (~125/s) to matter to
//    the queries beside them.
// The query connections plus the one utterance connection stay within
// the gateway's 4 workers (a kept-alive connection holds a worker for
// its whole life). Query connections are at most half the cores: each
// is a client thread and a gateway worker taking turns, so the closed
// loop leaves cores free. On a shared 4-vCPU host, voice_calls' query
// closed loop over 3 connections followed other tenants' load (spread
// 0.15-0.24 over five seeds); over 2 it spread 0.05.
constexpr double kQueryRate = 2000;      // queries/s over all connections
constexpr std::size_t kMaxQueryConnections = 2;
constexpr double kUtteranceRate = 1000;  // utterances/s on one connection
// Relative tolerance of recomputed doubles (lifts, shares).
constexpr double kTolerance = 1e-9;
// The first second of the open loop warms caches and connections and
// is not measured.
constexpr double kWarmupSeconds = 1.0;
// Open-loop latencies are summarised per window of this many seconds:
// short enough that a host stall spoils few of a run's windows.
constexpr double kWindowSeconds = 0.5;
// Each closed loop is cut into this many windows (about a second each
// at the default run length); its rate is the median window's, so a
// host stall spoils a window or two, not the rate.
constexpr std::size_t kClosedWindows = 9;
// Traced run: queries evaluated in process, and answered again over a
// quiet connection for the wire cost.
constexpr std::size_t kTracedQueries = 600;
// Stream seeds of one dashboard phase.
constexpr uint64_t kTileStream = 1;
constexpr uint64_t kUtteranceStream = 2;
constexpr uint64_t kTracedUtteranceStream = 3;
constexpr uint64_t kQueryStream = 1000;

std::vector<std::string> PickDistinct(const std::vector<std::string>& pool,
                                      std::size_t k, Rng* rng) {
  std::vector<std::string> copy = pool;
  k = std::min(k, copy.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng->Uniform(static_cast<int64_t>(i),
                     static_cast<int64_t>(copy.size()) - 1));
    std::swap(copy[i], copy[j]);
  }
  copy.resize(k);
  return copy;
}

const std::string& PickOne(const std::vector<std::string>& pool, Rng* rng) {
  return pool[static_cast<std::size_t>(
      rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
}

// One query of class `cls` with parameters drawn from `keys`.
QueryRequest DrawQuery(QueryClass cls, const DashboardKeys& keys, Rng* rng) {
  switch (cls) {
    case QueryClass::kAssociation:
      return QueryRequest::Association(
          PickDistinct(keys.rows,
                       2 + static_cast<std::size_t>(rng->Uniform(0, 3)), rng),
          PickDistinct(keys.cols,
                       2 + static_cast<std::size_t>(rng->Uniform(0, 1)), rng));
    case QueryClass::kRelevancy: {
      QueryRequest q = QueryRequest::Relevancy(
          PickOne(keys.cols, rng), keys.row_prefix,
          static_cast<std::size_t>(rng->Uniform(5, 40)));
      q.min_count = static_cast<std::size_t>(rng->Uniform(1, 5));
      return q;
    }
    case QueryClass::kTrend: {
      QueryRequest q = QueryRequest::Trend(
          keys.row_prefix, static_cast<std::size_t>(rng->Uniform(5, 20)));
      q.min_count = static_cast<std::size_t>(rng->Uniform(1, 8));
      return q;
    }
    case QueryClass::kDrillDown:
      return QueryRequest::DrillDown(
          {PickOne(keys.rows, rng), PickOne(keys.cols, rng)},
          static_cast<std::size_t>(rng->Uniform(5, 50)));
    default:
      return QueryRequest::ConceptSearch(
          rng->NextDouble() < 0.5 ? keys.row_prefix : std::string(),
          static_cast<std::size_t>(rng->Uniform(5, 60)));
  }
}

// The query stream. Query i is a pure function of (seed, i), so it is
// made when it is sent and made again when its answer is checked. The
// mix: 30% association, 20% relevancy, 15% trend, 20% drill-down, 15%
// concept search. A fifth of the traffic re-asks one of eight fixed
// dashboard tiles (one per class, plus a second association, relevancy
// and drill-down); the rest draws fresh parameters, so most queries
// miss the result cache. The class mix is the same for every seed;
// only the parameters vary. The mix is an assumption (README).
class QueryStream {
 public:
  QueryStream(const DashboardKeys& keys, uint64_t seed)
      : keys_(keys), seed_(seed) {
    static constexpr QueryClass kTiles[] = {
        QueryClass::kAssociation, QueryClass::kRelevancy, QueryClass::kTrend,
        QueryClass::kDrillDown,   QueryClass::kConceptSearch,
        QueryClass::kAssociation, QueryClass::kRelevancy, QueryClass::kDrillDown};
    Rng rng(SubSeed(seed, kTileStream));
    for (QueryClass cls : kTiles) tiles_.push_back(DrawQuery(cls, keys, &rng));
  }

  QueryRequest At(std::size_t i) const {
    if (i % 5 == 4) return tiles_[(i / 5) % tiles_.size()];
    Rng rng(SubSeed(seed_, kQueryStream + i));
    const double u = rng.NextDouble();
    const QueryClass cls = u < 0.30   ? QueryClass::kAssociation
                           : u < 0.50 ? QueryClass::kRelevancy
                           : u < 0.65 ? QueryClass::kTrend
                           : u < 0.85 ? QueryClass::kDrillDown
                                      : QueryClass::kConceptSearch;
    return DrawQuery(cls, keys_, &rng);
  }

 private:
  const DashboardKeys& keys_;
  uint64_t seed_;
  std::vector<QueryRequest> tiles_;
};

// The concept keys the live driver's dictionary finds in `text`.
std::vector<std::string> DriverConceptsOf(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& entry : LiveCallCenterDriver::Dictionary()) {
    if (text.find(entry.term) != std::string::npos) {
      out.push_back(entry.category + "/" + entry.name);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The phases of the measured run: both streams open loop (after a
// warm-up), then queries closed loop (utterances keep their offered
// rate), then, when asked for, utterances closed loop (queries keep
// theirs).
struct Phases {
  Clock::time_point t0;
  Clock::time_point warm;  // open-loop latencies count from here
  Clock::time_point open_end;
  Clock::time_point queries_closed_end;
  Clock::time_point end;
};

// One request of a load connection, made just before it is due.
struct Request {
  std::size_t id = 0;
  std::string body;
  bool close = false;  // an utterance that closes its call
};

// One load connection. Open loop, request k is due at t0 + offset +
// k * interval and is timed from that moment, so a stall counts against
// every request it delays; latencies of requests due before open_end
// are kept per window. Between closed_start and closed_end
// it sends back to back instead and counts completions per closed
// window, then resumes its schedule until `end`. Each request is made
// by `next` before it is due and each 200 answer goes to `answered`,
// with whether it should be checked; both run on this connection's
// thread.
struct Sender {
  std::unique_ptr<HttpClient> client;
  std::string path;
  double interval_s = 0;
  double offset_s = 0;
  std::function<void(std::size_t k, Request*)> next;
  std::function<void(const Request&, std::string body, bool check)> answered;

  // Results.
  std::vector<std::vector<double>> open_ms;  // by open window
  std::vector<uint64_t> closed_done;         // by closed window
  std::vector<uint64_t> closed_closes;       // by closed window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double lateness_sum_ms = 0;
  double lateness_max_ms = 0;

  void Run(const Phases& ph, Clock::time_point closed_start,
           Clock::time_point closed_end) {
    // Wake on schedule: the default 50 us timer slack would add to
    // every open-loop latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    closed_done.assign(kClosedWindows, 0);
    closed_closes.assign(kClosedWindows, 0);
    const double closed_window_s =
        std::chrono::duration<double>(closed_end - closed_start).count() /
        static_cast<double>(kClosedWindows);
    const auto due = [&](std::size_t slot) {
      return ph.t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             offset_s + static_cast<double>(slot) * interval_s));
    };
    std::size_t slot = 0;  // next open-loop slot
    // The first slot due at or after the closed loop ends.
    const std::size_t resume_slot = static_cast<std::size_t>(std::ceil(std::max(
        0.0, (std::chrono::duration<double>(closed_end - ph.t0).count() -
              offset_s) /
                 interval_s)));
    Request request;
    for (std::size_t k = 0;; ++k) {
      next(k, &request);
      Clock::time_point now = Clock::now();
      const bool closed = now >= closed_start && now < closed_end;
      Clock::time_point intended = now;
      if (closed) {
        slot = std::max(slot, resume_slot);
      } else {
        intended = due(slot++);
        if (intended >= closed_start && intended < closed_end) {
          intended = closed_start;  // the closed loop starts on time
          slot = resume_slot;
        }
        if (intended >= ph.end) break;
        std::this_thread::sleep_until(intended);
        const double late = std::max(0.0, MillisSince(intended));
        lateness_sum_ms += late;
        lateness_max_ms = std::max(lateness_max_ms, late);
      }
      Result<HttpResponse> response = client->Post(path, request.body);
      const Clock::time_point done = Clock::now();
      ++attempted;
      if (!response.ok() || response.value().status != 200) {
        ++failed;
        if (failed <= 3) {
          std::fprintf(stderr, "%s request %zu failed: %s\n", path.c_str(),
                       request.id,
                       response.ok() ? response.value().body.c_str()
                                     : response.status().ToString().c_str());
        }
        continue;
      }
      const bool measured_open =
          !closed && intended >= ph.warm && intended < ph.open_end;
      if (measured_open) {
        const std::size_t w = static_cast<std::size_t>(
            std::chrono::duration<double>(intended - ph.warm).count() /
            kWindowSeconds);
        if (open_ms.size() <= w) open_ms.resize(w + 1);
        open_ms[w].push_back(
            std::chrono::duration<double, std::milli>(done - intended).count());
      } else if (closed) {
        const std::size_t w = static_cast<std::size_t>(
            std::chrono::duration<double>(done - closed_start).count() /
            closed_window_s);
        if (w < kClosedWindows) {
          ++closed_done[w];
          if (request.close) ++closed_closes[w];
        }
      }
      answered(request, std::move(response.value().body),
               measured_open || k % kClosedCheckStride == 0);
    }
  }
};

// Median over windows of `stat` of each window's samples.
template <typename Stat>
double MedianOverWindows(const std::vector<std::vector<double>>& windows,
                         Stat stat) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(stat(w));
  }
  return Percentile(per_window, 0.5);
}

std::size_t CountOf(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.Find(key);
  return f == nullptr ? static_cast<std::size_t>(-1)
                      : static_cast<std::size_t>(f->GetInt64());
}

double DoubleOf(const JsonValue& v, std::string_view key) {
  const JsonValue* f = v.Find(key);
  return f == nullptr ? std::nan("") : f->GetDouble();
}

const JsonValue::Array& ArrayOf(const JsonValue& v, std::string_view key) {
  static const JsonValue::Array kEmpty;
  const JsonValue* f = v.Find(key);
  return f == nullptr || !f->is_array() ? kEmpty : f->GetArray();
}

// Checks one query answer against the tally (when known), the Eqn 4
// recomputation and the properties every answer must have.
void CheckAnswer(const QueryRequest& q, const JsonValue& body,
                 const DashboardKeys& keys, Outcome* out) {
  const KeyTally* tally = keys.tally;
  const std::size_t n = CountOf(body, "num_documents");
  const std::string cls = QueryClassName(q.cls);
  out->Check(n != static_cast<std::size_t>(-1), cls + ": num_documents missing");
  switch (q.cls) {
    case QueryClass::kAssociation: {
      const JsonValue* table = body.Find("association");
      out->Check(table != nullptr, "association: table missing");
      if (table == nullptr) return;
      const auto& cells = ArrayOf(*table, "cells");
      out->Check(cells.size() == q.row_keys.size() * q.col_keys.size(),
                 "association: cell count");
      for (const JsonValue& c : cells) {
        const std::string row = c.Find("row_key")->GetString();
        const std::string col = c.Find("col_key")->GetString();
        const std::size_t n_cell = CountOf(c, "n_cell");
        const std::size_t n_row = CountOf(c, "n_row");
        const std::size_t n_col = CountOf(c, "n_col");
        const std::size_t cn = CountOf(c, "n");
        out->Check(cn == n, "association: cell n equals the snapshot size");
        out->Check(n_cell <= std::min(n_row, n_col) && n_row <= cn &&
                       n_col <= cn,
                   "association: counts are consistent");
        if (tally != nullptr) {
          out->Check(n_row == tally->Count(row) && n_col == tally->Count(col) &&
                         n_cell == tally->CountBoth(row, col),
                     "association: " + row + " x " + col +
                         " counts match the tally");
        }
        const double lower = DoubleOf(c, "lower_lift");
        const double expected = EqnFourLowerBound(n_cell, n_row, n_col, cn);
        out->Check(RelDiff(lower, expected) <= kTolerance ||
                       (expected == 0 && lower == 0),
                   "association: Eqn 4 lower bound of " + row + " x " + col);
        const double point = DoubleOf(c, "point_lift");
        if (n_row > 0 && n_col > 0) {
          out->Check(RelDiff(point, static_cast<double>(n_cell) *
                                        static_cast<double>(cn) /
                                        (static_cast<double>(n_row) *
                                         static_cast<double>(n_col))) <=
                             kTolerance ||
                         n_cell == 0,
                     "association: point lift");
          out->Check(lower <= point * (1 + kTolerance),
                     "association: lower bound exceeds point lift");
        }
      }
      break;
    }
    case QueryClass::kRelevancy: {
      const auto& items = ArrayOf(body, "relevancy");
      out->Check(items.size() <= q.limit, "relevancy: limit");
      for (const JsonValue& item : items) {
        const std::string key = item.Find("key")->GetString();
        const std::size_t sub = CountOf(item, "subset_count");
        const std::size_t corp = CountOf(item, "corpus_count");
        out->Check(key.compare(0, q.prefix.size(), q.prefix) == 0 &&
                       key != q.key,
                   "relevancy: item key outside the prefix");
        out->Check(sub >= q.min_count && sub <= corp && corp <= n,
                   "relevancy: counts are consistent");
        out->Check(RelDiff(DoubleOf(item, "corpus_freq"),
                           static_cast<double>(corp) / static_cast<double>(n)) <=
                       kTolerance,
                   "relevancy: corpus frequency");
        if (tally != nullptr) {
          out->Check(sub == tally->CountBoth(q.key, key) &&
                         corp == tally->Count(key),
                     "relevancy: " + q.key + " / " + key +
                         " counts match the tally");
          out->Check(RelDiff(DoubleOf(item, "subset_freq"),
                             static_cast<double>(sub) /
                                 static_cast<double>(tally->Count(q.key))) <=
                         kTolerance,
                     "relevancy: subset frequency");
        }
      }
      if (tally != nullptr) {
        std::size_t qualifying = 0;
        for (const std::string& key : tally->KeysWithPrefix(q.prefix)) {
          if (key != q.key && tally->CountBoth(q.key, key) >= q.min_count) {
            ++qualifying;
          }
        }
        out->Check(items.size() == std::min(q.limit, qualifying),
                   "relevancy: number of qualifying items for " + q.key);
      }
      break;
    }
    case QueryClass::kTrend: {
      const auto& trends = ArrayOf(body, "trends");
      out->Check(trends.size() <= q.limit, "trend: limit");
      for (const JsonValue& t : trends) {
        const std::string key = t.Find("key")->GetString();
        const std::size_t total = CountOf(t, "total_count");
        out->Check(total >= q.min_count && total <= n,
                   "trend: total is consistent");
        if (tally != nullptr) {
          out->Check(total == tally->Count(key),
                     "trend: total of " + key + " matches the tally");
        }
      }
      break;
    }
    case QueryClass::kDrillDown: {
      const auto& hits = ArrayOf(body, "drill");
      out->Check(hits.size() <= q.limit, "drill-down: limit");
      std::vector<uint64_t> ids;
      for (const JsonValue& h : hits) {
        ids.push_back(static_cast<uint64_t>(h.Find("doc")->GetInt64()));
      }
      out->Check(std::is_sorted(ids.begin(), ids.end()) &&
                     std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                 "drill-down: ids ascend");
      if (tally != nullptr) {
        const std::vector<uint64_t> expected =
            tally->DocsWithAll(q.row_keys, q.limit);
        out->Check(keys.ids_match ? ids == expected
                                  : ids.size() == expected.size(),
                   "drill-down: " + q.row_keys[0] + " & " + q.row_keys[1] +
                       " matches the tally");
      }
      break;
    }
    case QueryClass::kConceptSearch: {
      const auto& concepts = ArrayOf(body, "concepts");
      out->Check(concepts.size() <= q.limit, "concept search: limit");
      for (const JsonValue& c : concepts) {
        const std::string key = c.Find("key")->GetString();
        out->Check(key.compare(0, q.prefix.size(), q.prefix) == 0,
                   "concept search: key outside the prefix");
        if (tally != nullptr && !q.prefix.empty()) {
          out->Check(CountOf(c, "count") == tally->Count(key),
                     "concept search: count of " + key + " matches the tally");
        }
      }
      if (tally != nullptr && !q.prefix.empty()) {
        out->Check(concepts.size() ==
                       std::min(q.limit, tally->KeysWithPrefix(q.prefix).size()),
                   "concept search: number of keys under " + q.prefix);
      }
      break;
    }
    case QueryClass::kChurnDrivers:
      break;
  }
}

}  // namespace

uint16_t StartDashboard(BivocEngine* engine, bool live_driver_concepts) {
  if (live_driver_concepts) {
    DomainDictionary* dict = engine->extractor()->mutable_dictionary();
    for (const auto& entry : LiveCallCenterDriver::Dictionary()) {
      dict->Add(entry.term, entry.name, entry.category);
    }
    engine->pipeline()->mutable_language_filter()->AddVocabulary(
        LiveCallCenterDriver::Vocabulary());
  }
  Status streaming = engine->EnableStreaming();
  if (!streaming.ok()) {
    std::fprintf(stderr, "EnableStreaming: %s\n", streaming.ToString().c_str());
    return 0;
  }
  Result<uint16_t> port = engine->StartGateway();
  if (!port.ok()) {
    std::fprintf(stderr, "StartGateway: %s\n", port.status().ToString().c_str());
    return 0;
  }
  return port.value();
}

DashboardResult RunDashboard(BivocEngine* engine, uint16_t port,
                             const DashboardKeys& keys,
                             const DashboardOptions& options, Outcome* out) {
  DashboardResult result;
  const QueryStream queries(keys, options.seed);
  std::size_t checked = 0;

  // Answers are checked on the sender threads, one at a time: the
  // tally memoises and the outcome is not thread-safe.
  std::mutex check_mu;
  const auto check_answer = [&](const QueryRequest& q, const std::string& body) {
    const Clock::time_point t = Clock::now();
    Result<JsonValue> parsed = ParseJson(body);
    const double parse_us = MicrosSince(t);
    std::lock_guard<std::mutex> lock(check_mu);
    if (options.trace) result.json_parse_us.Add(parse_us);
    out->Check(parsed.ok(), "query reply is JSON");
    if (parsed.ok()) CheckAnswer(q, parsed.value(), keys, out);
    ++checked;
  };

  std::vector<std::unique_ptr<Sender>> senders;
  const std::size_t qc = std::clamp<std::size_t>(
      std::thread::hardware_concurrency() / 2, 1, kMaxQueryConnections);
  std::vector<Accum> dump_us(qc);
  for (std::size_t i = 0; i < qc; ++i) {
    auto s = std::make_unique<Sender>();
    s->client = std::make_unique<HttpClient>("127.0.0.1", port);
    s->path = "/v1/query";
    s->interval_s = static_cast<double>(qc) / kQueryRate;
    s->offset_s = static_cast<double>(i) / kQueryRate;
    // Query ids are dealt round robin over the connections.
    s->next = [&queries, &options, &dump = dump_us[i], i, qc](std::size_t k,
                                                             Request* r) {
      r->id = i + k * qc;
      const QueryRequest q = queries.At(r->id);
      const Clock::time_point t = Clock::now();
      r->body = DumpJson(QueryRequestToJson(q));
      if (options.trace) dump.Add(MicrosSince(t));
    };
    s->answered = [&](const Request& r, std::string body, bool check) {
      if (check) check_answer(queries.At(r.id), body);
    };
    senders.push_back(std::move(s));
  }

  // The utterance stream, made as it is sent. It is today's traffic:
  // every utterance is stamped with the bucket after the newest one
  // indexed. (Left to the live driver, the buckets would advance 80 times a
  // second at the offered rate, and each new bucket makes every later
  // trend query over the main index dearer.) For the window check, the
  // acknowledged utterances' driver concepts are counted.
  const int64_t today = [engine] {
    const std::shared_ptr<const IndexSnapshot> snap = engine->Snapshot();
    const auto& totals = snap->BucketTotals();
    return totals.empty() ? int64_t{0} : totals.back().first + 1;
  }();
  LiveDriverConfig driver_config;
  driver_config.seed = SubSeed(options.seed, kUtteranceStream);
  driver_config.buckets = INT_MAX;  // never runs out
  LiveCallCenterDriver driver(driver_config);
  LiveUtterance current;
  std::map<std::string, std::size_t> acked_concepts;
  uint64_t acked = 0;
  if (options.utterances) {
    auto s = std::make_unique<Sender>();
    s->client = std::make_unique<HttpClient>("127.0.0.1", port);
    s->path = "/v1/stream/utterance";
    s->interval_s = 1.0 / kUtteranceRate;
    s->next = [&](std::size_t k, Request* r) {
      driver.Next(&current);
      UtteranceAppend append;
      append.conversation_id = current.conversation_id;
      append.text = current.text;
      append.time_bucket = today;
      append.close = current.close;
      r->id = k;
      r->body = DumpJson(UtteranceAppendToJson(append));
      r->close = current.close;
    };
    s->answered = [&](const Request&, std::string, bool) {
      ++acked;
      if (!options.check_window) return;
      for (const std::string& key : DriverConceptsOf(current.text)) {
        ++acked_concepts[key];
      }
    };
    senders.push_back(std::move(s));
  }
  Sender* utterance_sender = options.utterances ? senders.back().get() : nullptr;

  // One request on each connection first, so connecting stays out of
  // the samples.
  for (auto& s : senders) {
    if (s.get() == utterance_sender) continue;
    Result<HttpResponse> r =
        s->client->Post("/v1/query", DumpJson(QueryRequestToJson(queries.At(0))));
    out->Check(r.ok() && r.value().status == 200, "warm-up query answered");
  }
  if (utterance_sender != nullptr) {
    Result<HttpResponse> r = utterance_sender->client->Get("/healthz");
    out->Check(r.ok() && r.value().status == 200, "warm-up health answered");
  }

  Phases ph;
  ph.t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto at = [&ph](double s) {
    return ph.t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  ph.warm = at(kWarmupSeconds);
  ph.open_end = at(options.open_seconds);
  ph.queries_closed_end = at(options.open_seconds + options.query_closed_seconds);
  ph.end = at(options.open_seconds + options.query_closed_seconds +
              options.utterance_closed_seconds);
  std::vector<std::thread> threads;
  for (auto& s : senders) {
    const bool utter = s.get() == utterance_sender;
    // With no utterance closed loop, its window is empty (from == to).
    const Clock::time_point from = utter ? ph.queries_closed_end : ph.open_end;
    const Clock::time_point to = utter ? ph.end : ph.queries_closed_end;
    threads.emplace_back([&s, &ph, from, to] { s->Run(ph, from, to); });
  }
  for (auto& t : threads) t.join();

  // Accounting.
  const double query_window_s =
      options.query_closed_seconds / static_cast<double>(kClosedWindows);
  const double utterance_window_s =
      options.utterance_closed_seconds / static_cast<double>(kClosedWindows);
  std::vector<double> qps(kClosedWindows, 0), closes(kClosedWindows, 0);
  uint64_t late_n = 0;
  double late_sum = 0;
  for (auto& s : senders) {
    out->attempted += s->attempted;
    out->failed += s->failed;
    late_sum += s->lateness_sum_ms;
    result.max_lateness_ms = std::max(result.max_lateness_ms, s->lateness_max_ms);
    const bool utter = s.get() == utterance_sender;
    auto& windows = utter ? result.append_windows : result.query_windows;
    if (windows.size() < s->open_ms.size()) windows.resize(s->open_ms.size());
    for (std::size_t w = 0; w < s->open_ms.size(); ++w) {
      late_n += s->open_ms[w].size();
      windows[w].insert(windows[w].end(), s->open_ms[w].begin(),
                        s->open_ms[w].end());
    }
    for (std::size_t w = 0; w < kClosedWindows; ++w) {
      if (!utter) {
        qps[w] += static_cast<double>(s->closed_done[w]) / query_window_s;
      } else if (utterance_window_s > 0) {
        closes[w] += static_cast<double>(s->closed_closes[w]) / utterance_window_s;
      }
    }
  }
  for (const Accum& d : dump_us) result.json_dump_us.Merge(d);
  result.mean_lateness_ms = late_n == 0 ? 0 : late_sum / static_cast<double>(late_n);
  result.query_qps = Percentile(qps, 0.5);
  result.closes_per_s = Percentile(closes, 0.5);
  out->Check(!result.query_windows.empty() &&
                 (!options.utterances || !result.append_windows.empty()),
             "dashboard: open loop produced samples");
  if (options.utterance_closed_seconds > 0) {
    for (std::size_t w = 0; w < kClosedWindows; ++w) {
      out->Check(closes[w] > 0, "dashboard: closed loop folded calls");
    }
  }
  std::string by_window;
  for (const double q : qps) by_window += " " + FormatDouble(std::round(q));
  by_window += "; closes/s";
  for (const double c : closes) by_window += " " + FormatDouble(std::round(c));
  std::fprintf(stderr, "dashboard: closed loop, queries/s by window:%s\n",
               by_window.c_str());
  std::fprintf(stderr, "dashboard: %zu answers checked, %llu utterances acked\n",
               checked, static_cast<unsigned long long>(acked));

  // Window trend totals against the utterances this run appended, all
  // of them in the window's one bucket.
  HttpClient* client = senders.front()->client.get();
  if (options.check_window) {
    const std::map<std::string, std::size_t>& expected = acked_concepts;
    QueryRequest q = QueryRequest::Trend("", 1000);
    q.window = true;
    q.min_count = 1;
    Result<HttpResponse> r =
        client->Post("/v1/query", DumpJson(QueryRequestToJson(q)));
    out->Check(r.ok() && r.value().status == 200, "window trend answered");
    if (r.ok() && r.value().status == 200) {
      Result<JsonValue> body = ParseJson(r.value().body);
      std::map<std::string, std::size_t> got;
      if (body.ok()) {
        for (const JsonValue& t : ArrayOf(body.value(), "trends")) {
          got[t.Find("key")->GetString()] = CountOf(t, "total_count");
        }
      }
      for (const auto& [key, count] : expected) {
        out->Check(got.count(key) != 0 && got[key] == count, "window trend total of " + key + ": " +
                                          std::to_string(got[key]) + " vs " +
                                          std::to_string(count));
      }
      out->Check(!expected.empty(), "window holds appended utterances");
    }
  }

  if (options.trace) {
    ServeStats stats = engine->serve()->stats();
    result.cache_hit_ratio = stats.CacheHitRatio();
    result.shed = static_cast<double>(stats.shed);

    // Publish cost after one new document, on this index.
    for (int i = 0; i < 30; ++i) {
      Result<Document> doc = engine->pipeline()->TryProcess(
          VocChannel::kCall, "publish probe call", 0);
      if (!doc.ok()) continue;
      (void)engine->pipeline()->TryIndexDocument(doc.value(), {"probe/publish"});
      const Clock::time_point t = Clock::now();
      engine->pipeline()->PublishIndex();
      result.publish_ms.Add(MillisSince(t));
    }
    std::shared_ptr<const IndexSnapshot> snap = engine->Snapshot();
    result.postings_bytes_per_doc =
        static_cast<double>(snap->Storage().postings_bytes) /
        static_cast<double>(std::max<std::size_t>(1, snap->num_documents()));

    // The first queries of the run, on the now quiet engine: evaluated
    // in process, executed in process (a fresh answer), executed again
    // (now cached) and asked over HTTP (cached too). The wire cost is
    // the round trip less the in-process call on the same cached
    // answer, both taken with nothing else running.
    for (std::size_t i = 0; i < kTracedQueries; ++i) {
      const QueryRequest q = queries.At(i);
      Clock::time_point t = Clock::now();
      ReportResult r = EvaluateQuery(q, *snap);
      result.evaluate_us[static_cast<std::size_t>(q.cls)].Add(MicrosSince(t));
      (void)r;
      t = Clock::now();
      auto fresh = engine->serve()->Execute(q);
      const double fresh_us = MicrosSince(t);
      out->Check(fresh.ok(), "in-process execute");
      if (fresh.ok() && !fresh.value().from_cache) result.execute_us.Add(fresh_us);
      t = Clock::now();
      auto cached = engine->serve()->Execute(q);
      const double cached_us = MicrosSince(t);
      const std::string body = DumpJson(QueryRequestToJson(q));
      t = Clock::now();
      Result<HttpResponse> reply = client->Post("/v1/query", body);
      const double roundtrip_us = MicrosSince(t);
      out->Check(cached.ok() && cached.value().from_cache && reply.ok() &&
                     reply.value().status == 200,
                 "quiet pass: cached answer in process and over HTTP");
      result.execute_hit_us.Add(cached_us);
      result.roundtrip_us.Add(roundtrip_us);
    }

    // In-process appends of a fresh stretch of the live stream.
    LiveDriverConfig trace_config;
    trace_config.seed = SubSeed(options.seed, kTracedUtteranceStream);
    trace_config.buckets = 40;
    LiveCallCenterDriver trace_driver(trace_config);
    LiveUtterance lu;
    while (trace_driver.Next(&lu)) {
      UtteranceAppend append;
      append.conversation_id = "traced-" + lu.conversation_id;
      append.text = lu.text;
      append.time_bucket = today;
      append.close = lu.close;
      const Clock::time_point t = Clock::now();
      auto appended = engine->stream()->Append(append);
      (append.close ? result.close_us : result.append_us).Add(MicrosSince(t));
      out->Check(appended.ok(), "in-process append");
    }
  }
  return result;
}

namespace {

auto PercentileOf(double p) {
  return [p](const std::vector<double>& w) { return Percentile(w, p); };
}

}  // namespace

void AddDashboardMetrics(const DashboardResult& r, Outcome* out) {
  // Each window's p90, queries then appends: a host stall shows as a
  // lone high window, a drift in the program as a slope.
  std::string by_window;
  for (const auto* windows : {&r.query_windows, &r.append_windows}) {
    by_window += windows == &r.query_windows ? " queries" : "; appends";
    for (const auto& w : *windows) {
      by_window += " " + FormatDouble(std::round(Percentile(w, 0.90) * 1e3) / 1e3);
    }
  }
  std::fprintf(stderr, "dashboard: p90 ms by window:%s\n", by_window.c_str());
  out->Add("query_qps", r.query_qps, "queries/s");
  // Open-loop latencies do not hold steady from run to run on a shared
  // host (see the README), so they are printed for information only;
  // the traced run reports the p90s as net-layer figures.
  std::fprintf(stderr,
               "dashboard: %zu windows; query p50 %.4f ms p90 %.4f ms p99 %.4f "
               "ms; append p50 %.4f ms p90 %.4f ms p99 %.4f ms; generator "
               "lateness mean %.4f ms, max %.3f ms\n",
               r.query_windows.size(),
               MedianOverWindows(r.query_windows, PercentileOf(0.50)),
               MedianOverWindows(r.query_windows, PercentileOf(0.90)),
               MedianOverWindows(r.query_windows, PercentileOf(0.99)),
               MedianOverWindows(r.append_windows, PercentileOf(0.50)),
               MedianOverWindows(r.append_windows, PercentileOf(0.90)),
               MedianOverWindows(r.append_windows, PercentileOf(0.99)),
               r.mean_lateness_ms, r.max_lateness_ms);
}

void AddDashboardLayerMetrics(const DashboardResult& r, Outcome* out) {
  static const char* kClassMetric[] = {
      "serve.evaluate_us_per_query.concept_search",
      "serve.evaluate_us_per_query.relevancy",
      "serve.evaluate_us_per_query.association",
      "serve.evaluate_us_per_query.trend",
      nullptr,  // churn drivers: not in the query mix
      "serve.evaluate_us_per_query.drill_down",
  };
  for (std::size_t c = 0; c < 6; ++c) {
    if (kClassMetric[c] != nullptr) {
      out->Add(kClassMetric[c], r.evaluate_us[c].Mean(), "us");
    }
  }
  out->Add("serve.execute_us_per_query", r.execute_us.Mean(), "us");
  out->Add("serve.cache_hit_ratio", r.cache_hit_ratio, "ratio");
  out->Add("serve.shed_queries", r.shed, "count");
  out->Add("net.roundtrip_us_per_query", r.roundtrip_us.Mean(), "us");
  out->Add("net.wire_us_per_query",
           r.roundtrip_us.Mean() - r.execute_hit_us.Mean(), "us");
  out->Add("net.json_us_per_query",
           r.json_dump_us.Mean() + r.json_parse_us.Mean(), "us");
  // Open loop over the gateway at the offered rates, from intended send
  // time: median over windows of each window's p90.
  out->Add("net.query_p90_ms", MedianOverWindows(r.query_windows, PercentileOf(0.90)),
           "ms");
  out->Add("net.append_p90_ms",
           MedianOverWindows(r.append_windows, PercentileOf(0.90)), "ms");
  out->Add("stream.append_us", r.append_us.Mean(), "us");
  out->Add("stream.close_us", r.close_us.Mean(), "us");
  out->Add("mining.publish_ms", r.publish_ms.Mean(), "ms");
  out->Add("mining.postings_bytes_per_doc", r.postings_bytes_per_doc, "bytes");
}

}  // namespace vocbench
