// telecom_messages: the §VI churn corpus mix of emails and SMS (spam and
// non-English included) batch-ingested with durability on (WAL append
// plus fsync per batch), against a warehouse large enough that linking
// does most of the work. Cleaning and linking dominate; ASR does none.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "checks.h"
#include "clean/email_cleaner.h"
#include "core/bivoc.h"
#include "core/churn.h"
#include "core/persist.h"
#include "dashboard.h"
#include "linking/linker.h"
#include "synth/corpora.h"
#include "synth/telecom.h"
#include "util/random.h"
#include "workloads.h"

namespace vocbench {

using namespace bivoc;

namespace {

constexpr int kCustomers = 20000;
// Enough messages for a run's timed part at well over today's rate; a
// run that uses them all ends its timed part early.
constexpr int kEmails = 15000;
constexpr int kSms = 90000;
constexpr std::size_t kBatch = 500;
constexpr double kLinkMinScore = 0.6;
// Checks on samples of the ingested messages.
constexpr std::size_t kSample = 400;
constexpr double kVerdictFloor = 0.95;
constexpr double kLinkFloor = 0.60;
// Messages ingested after the checkpoint, replayed from the WAL tail.
constexpr std::size_t kTailDocs = 200;
// Traced run: messages replayed stage by stage.
constexpr std::size_t kTracedDocs = 1500;

std::vector<std::string> MessageKeys(const VocDocument& doc,
                                     const TelecomWorld& world) {
  std::vector<std::string> keys = {doc.channel == VocChannel::kEmail
                                       ? "channel/email"
                                       : "channel/sms"};
  if (doc.customer_id >= 0) {
    const TelecomCustomer& c =
        world.customers()[static_cast<std::size_t>(doc.customer_id)];
    keys.push_back(c.prepaid ? "plan/prepaid" : "plan/postpaid");
    keys.push_back("region/r" + std::to_string(c.region));
  }
  return keys;
}

// Everything but the warehouse and durability: cleaning vocabularies,
// annotators, concept dictionary, ingest threads. Shared by the engine
// under test and the one recovery restores into.
void ConfigureTelecomEngine(BivocEngine* engine, const TelecomWorld& world,
                            std::size_t threads) {
  std::vector<std::string> gazetteer = FirstNames();
  gazetteer.insert(gazetteer.end(), LastNames().begin(), LastNames().end());
  engine->ConfigureAnnotators(gazetteer, {});
  ConfigureChurnExtractor(engine->extractor());
  const std::vector<std::string> vocab = world.DomainVocabulary();
  engine->pipeline()->mutable_language_filter()->AddVocabulary(vocab);
  engine->pipeline()->mutable_sms_normalizer()->SetSpellingDictionary(vocab);
  IngestOptions options;
  options.num_threads = threads;
  engine->ConfigureIngest(options);
}

}  // namespace

Outcome RunTelecomMessages(const RunArgs& args) {
  Outcome out;
  const std::size_t threads = std::max<std::size_t>(1, args.threads);

  // --- set-up -----------------------------------------------------------
  TelecomConfig config;
  config.num_customers = kCustomers;
  config.num_emails = kEmails;
  config.num_sms = kSms;
  config.seed = SubSeed(args.seed, 20);
  const TelecomWorld world = TelecomWorld::Generate(config);
  for (std::size_t i = 0; i < world.customers().size(); ++i) {
    if (world.customers()[i].id != static_cast<int>(i)) {
      out.Check(false, "telecom: customer ids are positions");
      break;
    }
  }

  BivocEngine engine;
  out.Check(world.BuildDatabase(engine.warehouse()).ok(), "telecom: warehouse");
  LinkerConfig linker_config;
  linker_config.min_score = kLinkMinScore;
  out.Check(engine.FinishWarehouse(linker_config).ok(), "telecom: linker build");
  ConfigureTelecomEngine(&engine, world, threads);
  const std::string wal_dir = args.scratch_dir + "/telecom-durability";
  std::filesystem::remove_all(wal_dir);
  out.Check(engine.EnableDurability(wal_dir).ok(), "telecom: durability on");

  // The message stream: emails and SMS interleaved in a seeded order.
  std::vector<const VocDocument*> stream;
  for (const VocDocument& d : world.emails()) stream.push_back(&d);
  for (const VocDocument& d : world.sms()) stream.push_back(&d);
  Rng shuffle(SubSeed(args.seed, 21));
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1],
              stream[static_cast<std::size_t>(
                  shuffle.Uniform(0, static_cast<int64_t>(i) - 1))]);
  }
  auto make_item = [&](const VocDocument& d) {
    IngestItem item;
    item.channel = d.channel;
    item.payload = d.raw_text;
    item.time_bucket = d.day_index;
    item.structured_keys = MessageKeys(d, world);
    return item;
  };

  const double setup_s = SecondsSince(ProcessStart());

  // --- timed: journaled batch ingest ------------------------------------
  const double ingest_s = args.seconds * (args.trace ? 1.0 : kIngestShare);
  // The WAL tail batch of the recovery check comes from the end of the
  // stream, never from the timed part.
  const std::size_t timed_limit = stream.size() - kTailDocs;
  std::size_t next = 0;
  HealthReport totals;
  Accum ingest_batch_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ingest_s));
  while (Clock::now() < deadline && next < timed_limit) {
    const std::size_t end = std::min(timed_limit, next + kBatch);
    std::vector<IngestItem> items;
    items.reserve(end - next);
    for (std::size_t i = next; i < end; ++i) items.push_back(make_item(*stream[i]));
    const Clock::time_point b0 = Clock::now();
    HealthReport report = engine.IngestBatch(items);
    ingest_batch_ms.Add(MillisSince(b0));
    totals.submitted += report.submitted;
    totals.processed += report.processed;
    totals.dropped += report.dropped;
    totals.dead_lettered += report.dead_lettered;
    next = end;
  }
  const double elapsed = SecondsSince(start);
  const std::size_t done = next;
  out.attempted += done;
  out.failed += totals.dead_lettered;
  const double docs_per_s = static_cast<double>(totals.processed) / elapsed;

  // --- checks -----------------------------------------------------------
  out.Check(totals.submitted == done, "telecom: every message submitted");
  out.Check(totals.submitted == totals.processed + totals.dropped +
                                    totals.dead_lettered,
            "telecom: submitted = processed + dropped + dead-lettered");
  out.Check(engine.Snapshot()->num_documents() == totals.processed,
            "telecom: snapshot document count equals processed");

  // Filter verdicts and links on a sample, against the generator's
  // ground truth.
  VocPipeline* pipeline = engine.pipeline();
  const Table* customers = *engine.warehouse()->GetTable("telecom_customers");
  std::size_t verdicts = 0, agree = 0, link_tries = 0, linked_right = 0;
  const std::size_t step = std::max<std::size_t>(1, done / kSample);
  for (std::size_t i = 0; i < done; i += step) {
    const VocDocument& d = *stream[i];
    Result<Document> doc = pipeline->TryProcess(d.channel, d.raw_text, 0);
    if (!doc.ok()) continue;
    const bool expect_drop = d.is_spam || !d.is_english;
    ++verdicts;
    if (doc.value().dropped == expect_drop) ++agree;
    if (expect_drop || d.customer_id < 0 || d.payment_id >= 0) continue;
    ++link_tries;
    if (doc.value().annotations.empty()) continue;
    const MultiTypeLinker::TypedMatch m =
        engine.linker()->Identify(doc.value().annotations);
    if (!m.linked || m.table != "telecom_customers") continue;
    Result<int64_t> id = customers->GetInt(m.row, "id");
    if (id.ok() && id.value() == d.customer_id) ++linked_right;
  }
  const double agreement =
      verdicts == 0 ? 0 : static_cast<double>(agree) / static_cast<double>(verdicts);
  const double link_share =
      link_tries == 0 ? 0
                      : static_cast<double>(linked_right) /
                            static_cast<double>(link_tries);
  out.Check(agreement >= kVerdictFloor,
            "telecom: spam/language verdicts agree with the generator " +
                FormatDouble(agreement));
  out.Check(link_share >= kLinkFloor,
            "telecom: share linked to the true customer " + FormatDouble(link_share));

  // Recovery, outside the timed region: checkpoint, a journaled tail
  // batch, then Recover() into a fresh engine.
  out.Check(engine.SaveCheckpoint().ok(), "telecom: checkpoint");
  {
    std::vector<IngestItem> tail;
    for (std::size_t i = timed_limit; i < stream.size(); ++i) {
      tail.push_back(make_item(*stream[i]));
    }
    HealthReport report = engine.IngestBatch(tail);
    out.Check(report.dead_lettered == 0, "telecom: tail batch ingested");
  }
  const BivocEngine::ContentSummary before = engine.ContentChecksum();
  {
    BivocEngine restored;
    ConfigureTelecomEngine(&restored, world, threads);
    out.Check(restored.EnableDurability(wal_dir).ok(),
              "telecom: durability on the restored engine");
    Result<RecoveryReport> recovered = restored.Recover();
    out.Check(recovered.ok(), "telecom: Recover() succeeds");
    const BivocEngine::ContentSummary after = restored.ContentChecksum();
    out.Check(after.num_documents == before.num_documents &&
                  after.checksum == before.checksum,
              "telecom: recovery reproduces the document count and checksum");
  }
  std::fprintf(stderr,
               "telecom_messages: %zu messages in %.3f s (%zu processed, %zu "
               "dropped), verdicts %.4f, linked right %.4f\n",
               done, elapsed, totals.processed, totals.dropped, agreement,
               link_share);

  if (args.trace) {
    // Stage by stage over the first messages of the stream, through
    // the public call of each layer.
    EmailCleaner email_cleaner;
    std::vector<std::string> gazetteer = FirstNames();
    gazetteer.insert(gazetteer.end(), LastNames().begin(), LastNames().end());
    AnnotatorPipeline annotators;
    annotators.Add(std::make_unique<NameAnnotator>(gazetteer));
    annotators.Add(std::make_unique<PhoneAnnotator>());
    annotators.Add(std::make_unique<DateAnnotator>());
    annotators.Add(std::make_unique<MoneyAnnotator>());
    Result<EntityLinker> entity_linker =
        EntityLinker::Build(customers, linker_config);
    out.Check(entity_linker.ok(), "telecom: entity linker for tracing");
    IngestJournal journal;
    const std::string journal_path = args.scratch_dir + "/telecom-traced.wal";
    std::filesystem::remove(journal_path);
    out.Check(journal.Open(journal_path).ok(), "telecom: traced journal");

    Accum email_us, sms_us, filter_us, process_us, entities_us, extract_us,
        concepts, identify_us, candidates, sorted_acc, random_acc, index_us,
        wal_append_us, wal_sync_ms, publish_ms;
    std::size_t dropped = 0, identified = 0, linked = 0;
    const std::size_t n = std::min(kTracedDocs, timed_limit);
    for (std::size_t i = 0; i < n; ++i) {
      const VocDocument& d = *stream[i];
      IngestItem item = make_item(d);
      Clock::time_point t = Clock::now();
      (void)journal.Append(item);
      wal_append_us.Add(MicrosSince(t));
      if ((i + 1) % kBatch == 0 || i + 1 == n) {
        t = Clock::now();
        (void)journal.Sync();
        wal_sync_ms.Add(MillisSince(t));
      }

      std::string text = d.raw_text;
      if (d.channel == VocChannel::kEmail) {
        t = Clock::now();
        text = email_cleaner.Clean(d.raw_text).customer_text;
        email_us.Add(MicrosSince(t));
      }
      t = Clock::now();
      const bool drop = pipeline->mutable_spam_filter()->IsSpam(text) ||
                        !pipeline->mutable_language_filter()->IsEnglish(text);
      filter_us.Add(MicrosSince(t));
      if (d.channel == VocChannel::kSms && !drop) {
        t = Clock::now();
        text = pipeline->mutable_sms_normalizer()->Normalize(d.raw_text);
        sms_us.Add(MicrosSince(t));
      }

      t = Clock::now();
      Result<Document> doc = pipeline->TryProcess(d.channel, d.raw_text, d.day_index);
      process_us.Add(MicrosSince(t));
      if (!doc.ok()) continue;
      if (doc.value().dropped) {
        ++dropped;
        continue;
      }
      t = Clock::now();
      std::vector<Annotation> annotations = annotators.AnnotateText(text);
      entities_us.Add(MicrosSince(t));
      t = Clock::now();
      const std::vector<Concept> found = engine.extractor()->Extract(text);
      extract_us.Add(MicrosSince(t));
      concepts.Add(static_cast<double>(found.size()));

      const std::vector<Annotation>& anns = doc.value().annotations;
      t = Clock::now();
      const MultiTypeLinker::TypedMatch m = engine.linker()->Identify(anns);
      identify_us.Add(MicrosSince(t));
      ++identified;
      if (m.linked) ++linked;
      if (entity_linker.ok() && !anns.empty()) {
        for (const Annotation& a : anns) {
          candidates.Add(static_cast<double>(
              entity_linker.value().RankCandidates(a).size()));
        }
        FaginStats stats;
        (void)entity_linker.value().Link(anns, &stats);
        sorted_acc.Add(static_cast<double>(stats.sorted_accesses));
        random_acc.Add(static_cast<double>(stats.random_accesses));
      }
      t = Clock::now();
      (void)pipeline->TryIndexDocument(doc.value(), item.structured_keys);
      index_us.Add(MicrosSince(t));
      if ((i + 1) % kBatch == 0) {
        t = Clock::now();
        pipeline->PublishIndex();
        publish_ms.Add(MillisSince(t));
      }
    }
    journal.Sync();
    std::filesystem::remove(journal_path);

    out.Add("clean.email_us_per_doc", email_us.Mean(), "us");
    out.Add("clean.sms_us_per_doc", sms_us.Mean(), "us");
    out.Add("clean.filter_us_per_doc", filter_us.Mean(), "us");
    out.Add("clean.dropped_docs", static_cast<double>(dropped), "count");
    out.Add("annotate.entities_us_per_doc", entities_us.Mean(), "us");
    out.Add("annotate.extract_us_per_doc", extract_us.Mean(), "us");
    out.Add("annotate.concepts_per_doc", concepts.Mean(), "count");
    out.Add("linking.identify_us_per_doc", identify_us.Mean(), "us");
    out.Add("linking.candidates_per_annotation", candidates.Mean(), "count");
    out.Add("linking.fagin_sorted_accesses_per_doc", sorted_acc.Mean(), "count");
    out.Add("linking.fagin_random_accesses_per_doc", random_acc.Mean(), "count");
    out.Add("linking.linked_ratio",
            identified == 0 ? 0
                            : static_cast<double>(linked) /
                                  static_cast<double>(identified),
            "ratio");
    out.Add("core.process_us_per_doc", process_us.Mean(), "us");
    out.Add("core.wal_append_us_per_doc", wal_append_us.Mean(), "us");
    out.Add("core.wal_sync_ms_per_batch", wal_sync_ms.Mean(), "ms");
    out.Add("core.ingest_batch_ms", ingest_batch_ms.Mean(), "ms");
    out.Add("mining.index_add_us_per_doc", index_us.Mean(), "us");

    // Attribution: per message, linking against every other stage.
    const double clean_us =
        (email_us.sum + sms_us.sum + filter_us.sum) / static_cast<double>(n);
    const double annotate_us =
        (entities_us.sum + extract_us.sum) / static_cast<double>(n);
    const double link_us = identify_us.sum / static_cast<double>(n);
    const double index_share = index_us.sum / static_cast<double>(n);
    const double wal_us =
        (wal_append_us.sum + wal_sync_ms.sum * 1e3) / static_cast<double>(n);
    std::fprintf(stderr,
                 "telecom_messages traced: docs_per_s %.4f; per message clean "
                 "%.2f us, annotate %.2f us, link %.2f us, index %.2f us, wal "
                 "%.2f us\n",
                 docs_per_s, clean_us, annotate_us, link_us, index_share, wal_us);
    out.Check(link_us > clean_us && link_us > annotate_us &&
                  link_us > index_share && link_us > wal_us,
              "attribution: linking takes the largest share on telecom_messages");
    std::filesystem::remove_all(wal_dir);
    return out;
  }

  // --- dashboard over the ingested messages ----------------------------
  DashboardKeys keys;
  for (int r = 0; r < config.num_regions; ++r) {
    keys.rows.push_back("region/r" + std::to_string(r));
  }
  keys.rows.push_back("channel/email");
  keys.rows.push_back("channel/sms");
  keys.cols = {"plan/prepaid", "plan/postpaid"};
  for (const std::string& p : TelecomProducts()) keys.cols.push_back("product/" + p);
  keys.row_prefix = "region/";
  DashboardOptions dash;
  dash.seed = SubSeed(args.seed, 22);
  dash.open_seconds = std::max(args.seconds * kOpenShare, kMinOpenSeconds);
  dash.query_closed_seconds = args.seconds * kClosedShare;
  dash.utterances = false;
  // The gateway and the stream start only now, outside the timed
  // ingest, and without the live driver's dictionary: the ingest ran
  // on the workload's own configuration.
  const uint16_t port = StartDashboard(&engine, false);
  out.Check(port != 0, "telecom: gateway started");
  DashboardResult dr = RunDashboard(&engine, port, keys, dash, &out);
  engine.StopGateway();
  std::filesystem::remove_all(wal_dir);

  out.Add("setup_s", setup_s, "s");
  out.Add("docs_per_s", docs_per_s, "docs/s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  AddDashboardMetrics(dr, &out);
  return out;
}

}  // namespace vocbench
