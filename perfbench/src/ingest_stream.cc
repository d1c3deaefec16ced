// ingest_stream: writes beside reads on a time-partitioned store.
//
// An in-process CubeServer mounts a PartitionedCube windowed on `ts` with
// retention. One connection posts headerless CSV batches to /ingest back to
// back, with rising ts and a fixed share of late rows into older retained
// windows, and calls /compact after every round of batches. A second
// connection reads over the store, like a dashboard that refreshes after
// every few batches: one query pruned to the newest window, one over all
// windows, concurrent with the next batches. Reads are checked against the benchmark's own tally
// of rows sent and acknowledged; at the end the merged COUNT(*) and
// SUM(units) must equal the tally over the retained windows.
//
// A traced run spends the first half of its time in the same loop, with
// spans around each request, and the second half calling the ingest layers
// in process on a second store of the same shape: CSV parse, IngestRows,
// ApplyRetention, CompactNow and PrunedRows.

#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "datacube/cube/partitioned_cube.h"
#include "datacube/server/cube_server.h"
#include "datacube/table/csv.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

using datacube::PartitionedCube;
using datacube::Table;
using datacube::Value;
using datacube::server::CubeServer;

constexpr int64_t kWindow = 5000;       // ts units per window
constexpr int64_t kRetention = 8;       // windows kept
constexpr size_t kBatchRows = 1000;
constexpr int kBatchesPerRound = 20;    // then one /compact
constexpr int kBatchesPerRead = 10;     // a read pair per this many batches
constexpr int kLatePerMille = 100;      // share of rows sent to older windows
constexpr int kSources = 12;
constexpr int kKinds = 6;
constexpr int64_t kStartTs = 1'000'000;

struct Event {
  int64_t ts;
  int source;
  int kind;
  int64_t units;
};

/// Deterministic event stream: on-time rows advance ts by one; late rows
/// land at a random point of a retained older window.
class EventGen {
 public:
  explicit EventGen(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 7) {}

  std::vector<Event> Next(size_t n) {
    std::vector<Event> out(n);
    for (Event& e : out) {
      const int64_t newest = (next_ts_ - 1) / kWindow;
      const int64_t back = 1 + static_cast<int64_t>(rng_() % (kRetention - 2));
      if (static_cast<int>(rng_() % 1000) < kLatePerMille &&
          newest - back >= kStartTs / kWindow) {
        e.ts = (newest - back) * kWindow +
               static_cast<int64_t>(rng_() % kWindow);
      } else {
        e.ts = next_ts_++;
      }
      e.source = static_cast<int>(rng_() % kSources);
      e.kind = static_cast<int>(rng_() % kKinds);
      e.units = 1 + static_cast<int64_t>(rng_() % 100);
    }
    return out;
  }

  static std::string Csv(const std::vector<Event>& events) {
    std::string out;
    out.reserve(events.size() * 24);
    for (const Event& e : events) {
      out += std::to_string(e.ts);
      out += ",s" + std::to_string(e.source);
      out += ",k" + std::to_string(e.kind);
      out += "," + std::to_string(e.units) + "\n";
    }
    return out;
  }

 private:
  std::mt19937_64 rng_;
  int64_t next_ts_ = kStartTs;
};

datacube::Schema EventSchema() {
  return datacube::Schema{{{"ts", datacube::DataType::kInt64},
                           {"source", datacube::DataType::kString},
                           {"kind", datacube::DataType::kString},
                           {"units", datacube::DataType::kInt64}}};
}

Table EventTable(const std::vector<Event>& events) {
  Table t(EventSchema());
  for (const Event& e : events) {
    (void)t.AppendRow({Value::Int64(e.ts),
                       Value::String("s" + std::to_string(e.source)),
                       Value::String("k" + std::to_string(e.kind)),
                       Value::Int64(e.units)});
  }
  return t;
}

datacube::Result<std::unique_ptr<PartitionedCube>> MakeStore(bool background) {
  datacube::CubeSpec spec;
  spec.cube.push_back(datacube::GroupCol("source"));
  spec.cube.push_back(datacube::GroupCol("kind"));
  spec.aggregates.push_back(datacube::CountStar("events"));
  spec.aggregates.push_back(datacube::Agg("sum", "units", "units"));
  datacube::PartitionedCubeOptions po;
  po.partition_column = "ts";
  po.window_width = kWindow;
  po.retention_windows = kRetention;
  po.background_compaction = background;
  return PartitionedCube::Create(EventSchema(), spec, po);
}

/// Rows sent and acknowledged, per window.
struct Tally {
  struct Window {
    int64_t sent = 0;
    int64_t acked = 0;
    int64_t acked_units = 0;
  };
  std::mutex mu;
  std::map<int64_t, Window> windows;
  int64_t sent_total = 0;
  int64_t newest_acked = -1;

  void Sent(const std::vector<Event>& events) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Event& e : events) ++windows[e.ts / kWindow].sent;
    sent_total += static_cast<int64_t>(events.size());
  }
  void Acked(const std::vector<Event>& events) {
    std::lock_guard<std::mutex> lock(mu);
    for (const Event& e : events) {
      Window& w = windows[e.ts / kWindow];
      ++w.acked;
      w.acked_units += e.units;
      newest_acked = std::max(newest_acked, e.ts / kWindow);
    }
  }
};

}  // namespace

bool RunIngestStream(const RunOptions& opts, RunResult* result) {
  const int nproc = NumCpus();
  std::unique_ptr<CubeServer> server;
  std::shared_ptr<PartitionedCube> store;
  std::unique_ptr<Tally> tally;
  std::unique_ptr<EventGen> gen;

  // Set-up: store creation, server start and a history of full windows
  // loaded through the store's own ingest; several times before the loop
  // (the last one kept) and after it.
  auto teardown = [&] {
    server.reset();
    store.reset();
  };
  auto set_up = [&] {
    tally = std::make_unique<Tally>();
    gen = std::make_unique<EventGen>(opts.seed);
    auto made = MakeStore(/*background=*/true);
    if (!made.ok()) return false;
    store = std::move(made).value();
    CubeServer::Options so;
    so.max_concurrent_queries = 4;
    so.query_threads = nproc;
    auto started = CubeServer::Start(so);
    if (!started.ok()) return false;
    server = std::move(started).value();
    if (!server->RegisterPartitioned("Events", store).ok()) return false;
    std::vector<Event> history = gen->Next(kRetention * kWindow);
    tally->Sent(history);
    // One window at a time, each sealed at once: with a single open window
    // the store schedules no background compaction pass, whose CPU time
    // would depend on how it overlaps the set-up's own CompactNow.
    std::map<int64_t, std::vector<Event>> by_window;
    for (const Event& e : history) by_window[e.ts / kWindow].push_back(e);
    for (const auto& [window, events] : by_window) {
      if (!store->IngestRows(EventTable(events)).ok()) return false;
      store->CompactNow();
    }
    tally->Acked(history);
    return true;
  };
  constexpr int kSetupReps = 25;
  SetupTimer setup;
  if (!setup.Repeat(kSetupReps, teardown, set_up)) return false;
  const int port = server->port();

  const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
  Samples batch_ms, untraced_batch_ms, round_s, read_bytes;
  Samples read_ms[2];  // newest window, all windows
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  int64_t batches_done = 0;  // guarded by progress_mu
  bool ingest_done = false;  // guarded by progress_mu
  std::atomic<int64_t> rows_acked{0};
  std::atomic<uint64_t> reads_done{0};
  const double rss_start = CurrentRssMb();
  const double cpu_start = ProcessCpuSeconds();
  const CpuTimes host_start = ReadCpuTimes();
  Clock::time_point start = Clock::now();

  std::thread ingester([&] {
    for (int round = 0;; ++round) {
      if (round > 1 && SecondsSince(start) >= loop_seconds) break;
      const bool traced = opts.trace && round % 2 == 1;
      Tracer::SetThreadRoundTraced(traced);
      Clock::time_point round_start = Clock::now();
      for (int b = 0; b < kBatchesPerRound; ++b) {
        std::vector<Event> events = gen->Next(kBatchRows);
        std::string body = EventGen::Csv(events);
        tally->Sent(events);
        Clock::time_point t0 = Clock::now();
        HttpReply reply;
        {
          Span span("http.ingest", static_cast<int64_t>(events.size()));
          reply = HttpRequest(port, "POST", "/ingest?table=Events&header=0",
                              body);
        }
        double ms = MsSince(t0);
        batch_ms.Add(ms);
        if (!traced) untraced_batch_ms.Add(ms);
        const bool ok = reply.status == 200;
        if (ok) {
          tally->Acked(events);
          rows_acked += static_cast<int64_t>(events.size());
        } else {
          result->Mismatch("ingest: HTTP " + std::to_string(reply.status) +
                           " " + reply.error + reply.body.substr(0, 200));
        }
        result->Attempt("ingest", ok);
        {
          std::lock_guard<std::mutex> lock(progress_mu);
          ++batches_done;
        }
        progress_cv.notify_one();
      }
      HttpReply reply;
      {
        Span span("http.compact");
        reply = HttpRequest(port, "POST", "/compact?table=Events");
      }
      result->Attempt("compact", reply.status == 200);
      if (reply.status != 200) result->Mismatch("compact failed");
      if (round > 0) round_s.Add(SecondsSince(round_start));
    }
    {
      std::lock_guard<std::mutex> lock(progress_mu);
      ingest_done = true;
    }
    progress_cv.notify_one();
  });

  std::thread reader([&] {
    std::map<int64_t, int64_t> last_seen;  // window -> count seen
    for (int round = 0;; ++round) {
      {
        // Refresh after every kBatchesPerRead batches; stop with the stream.
        std::unique_lock<std::mutex> lock(progress_mu);
        progress_cv.wait(lock, [&] {
          return ingest_done ||
                 batches_done >= (round + 1) * int64_t{kBatchesPerRead};
        });
        if (ingest_done && round > 0) break;
      }
      Tracer::SetThreadRoundTraced(opts.trace && round % 2 == 1);
      for (int kind = 0; kind < 2; ++kind) {
        const bool newest = kind == 0;
        int64_t window, lower;
        {
          std::lock_guard<std::mutex> lock(tally->mu);
          window = tally->newest_acked;
          lower = newest ? tally->windows[window].acked : 0;
        }
        const int64_t lo = window * kWindow;
        const std::string sql =
            newest ? "SELECT source, COUNT(*), SUM(units) FROM Events WHERE "
                     "ts >= " + std::to_string(lo) + " AND ts < " +
                         std::to_string(lo + kWindow) +
                         " GROUP BY CUBE source"
                   : "SELECT kind, COUNT(*), SUM(units) FROM Events "
                     "GROUP BY CUBE kind";
        const char* op = newest ? "read_newest_window" : "read_all_windows";
        Clock::time_point t0 = Clock::now();
        HttpReply reply;
        {
          Span span(newest ? "http.read_newest" : "http.read_all");
          reply = HttpRequest(port, "GET", "/query?q=" + UrlEncode(sql));
        }
        read_ms[kind].Add(MsSince(t0));
        read_bytes.Add(static_cast<double>(reply.body.size()));
        int64_t upper;
        {
          std::lock_guard<std::mutex> lock(tally->mu);
          upper = newest ? tally->windows[window].sent : tally->sent_total;
        }
        std::string why;
        if (reply.status != 200) {
          why = "HTTP " + std::to_string(reply.status) + " " + reply.error +
                reply.body.substr(0, 200);
        } else {
          CsvRows rows;
          int64_t count = 0;
          why = SplitCsv(reply.body, /*skip_header=*/true, &rows)
                    ? CheckCountRead(rows, lower, upper,
                                     newest ? last_seen[window] : 0, &count)
                    : "unparseable CSV";
          if (newest && why.empty()) last_seen[window] = count;
          ++reads_done;
        }
        if (!why.empty()) result->Mismatch(std::string(op) + ": " + why);
        result->Attempt(op, why.empty());
      }
    }
  });
  ingester.join();
  reader.join();
  const double loop_s = SecondsSince(start);
  const double rss_end = CurrentRssMb();
  Figures fig;
  // One operation: a batch, with its share of reads and compactions.
  fig.cpu_ms_per_op = (ProcessCpuSeconds() - cpu_start) * 1e3 /
                      static_cast<double>(batch_ms.Take().size());
  fig.steal_pct = StealPct(host_start);
  const size_t partitions = store->num_partitions();

  // Final tally: after a compaction (which applies retention), the merged
  // COUNT(*) and SUM(units) must equal what was acknowledged into the
  // windows that retention keeps.
  {
    HttpReply compact = HttpRequest(port, "POST", "/compact?table=Events");
    HttpReply reply =
        HttpRequest(port, "GET",
                    "/query?q=" + UrlEncode("SELECT COUNT(*), SUM(units) "
                                            "FROM Events"));
    int64_t want_rows = 0, want_units = 0;
    {
      std::lock_guard<std::mutex> lock(tally->mu);
      const int64_t min_keep = tally->newest_acked - kRetention + 1;
      for (const auto& [w, t] : tally->windows) {
        if (w < min_keep) continue;
        want_rows += t.acked;
        want_units += t.acked_units;
      }
    }
    CsvRows rows;
    std::string why;
    if (compact.status != 200 || reply.status != 200) {
      why = "HTTP " + std::to_string(reply.status);
    } else if (!SplitCsv(reply.body, /*skip_header=*/true, &rows)) {
      why = "unparseable CSV";
    } else {
      why = CheckFinalTally(rows, want_rows, want_units);
    }
    if (!why.empty()) result->Mismatch("final tally: " + why);
    result->Attempt("final_tally", why.empty());
  }

  fig.peak_rss_mb = PeakRssMb();
  // The store has been checked: set up again, for setup_s.
  if (!opts.trace && !setup.Repeat(kSetupReps, teardown, set_up)) {
    return false;
  }
  fig.setup_cpu_s = setup.MedianSeconds();

  // Rounds of kBatchesPerRound batches plus a compaction; the median round
  // keeps a burst of outside load from moving the figure. The two reads
  // differ several-fold in cost: the mean of their medians stays put where
  // the median of the mixture could jump between them.
  fig.rows_per_s = kBatchesPerRound * kBatchRows / Median(round_s.Take());
  fig.qps = static_cast<double>(reads_done.load()) / loop_s;
  fig.query_p50_ms =
      (Median(read_ms[0].Take()) + Median(read_ms[1].Take())) / 2;
  ReportFigures(opts, fig, result);
  if (!opts.trace) {
    server->Stop();
    return true;
  }

  // Phase 2 (traced): the ingest layers in process, on a second store of the
  // same shape with compaction left to the caller.
  Tracer::SetThreadRoundTraced(true);
  auto shadow_made = MakeStore(/*background=*/false);
  if (!shadow_made.ok()) return false;
  std::unique_ptr<PartitionedCube> shadow = std::move(shadow_made).value();
  EventGen shadow_gen(opts.seed);
  datacube::CsvReadOptions csv;
  csv.has_header = false;
  csv.infer_types = false;
  int64_t newest_ts = 0;
  Clock::time_point phase2 = Clock::now();
  for (int round = 0;
       round < 2 || SecondsSince(phase2) < opts.seconds - loop_seconds;
       ++round) {
    for (int b = 0; b < kBatchesPerRound; ++b) {
      std::vector<Event> events = shadow_gen.Next(kBatchRows);
      for (const Event& e : events) newest_ts = std::max(newest_ts, e.ts);
      std::string body = EventGen::Csv(events);
      bool ok = InSpan("table.csv_parse", 0, [&] {
        auto t = datacube::ReadCsvString(body, csv);
        return t.ok() && t.value().num_rows() == events.size();
      });
      Table typed = EventTable(events);
      ok = ok && InSpan("ingest.upsert", 0,
                        [&] { return shadow->IngestRows(typed).ok(); });
      result->Attempt("inproc_ingest", ok);
      if (!ok) result->Mismatch("in-process ingest failed");
    }
    InSpan("ingest.retention", 0, [&] {
      shadow->ApplyRetention();
      return true;
    });
    {
      Span span("ingest.compact");  // its value: windows rebuilt
      span.set_value(static_cast<int64_t>(shadow->CompactNow()));
    }
    const int64_t lo = newest_ts / kWindow * kWindow;
    for (int kind = 0; kind < 2; ++kind) {
      std::optional<int64_t> from, to;
      if (kind == 0) {
        from = lo;
        to = lo + kWindow - 1;
      }
      bool ok = InSpan("ingest.pruned_scan", 0, [&] {
        return shadow->PrunedRows(from, to).ok();
      });
      result->Attempt("inproc_pruned_scan", ok);
      if (!ok) result->Mismatch("in-process pruned scan failed");
    }
  }
  server->Stop();

  const double mrows = static_cast<double>(rows_acked.load()) / 1e6;
  const Tracer& tr = Tracer::Get();
  result->Set("table.csv_parse_ms", Median(tr.Ms("table.csv_parse")), "ms");
  result->Set("ingest.upsert_ms", Median(tr.Ms("ingest.upsert")), "ms");
  result->Set("ingest.compact_ms", Median(tr.Ms("ingest.compact")), "ms");
  result->Set("ingest.windows_rebuilt", Mean(tr.Values("ingest.compact")),
              "count");
  result->Set("ingest.retention_ms", Median(tr.Ms("ingest.retention")), "ms");
  result->Set("ingest.pruned_scan_ms", Median(tr.Ms("ingest.pruned_scan")),
              "ms");
  result->Set("ingest.rss_mb_per_mrow",
              mrows > 0 ? (rss_end - rss_start) / mrows : 0, "MiB");
  result->Set("ingest.partitions", static_cast<double>(partitions), "count");
  result->Set("ingest.batch_p99_ms", Quantile(batch_ms.Take(), 0.99), "ms");
  result->Set("http.response_kb", Mean(read_bytes.Take()) / 1024.0, "KiB");
  result->Set("trace.overhead_pct",
              OverheadPct(tr.Ms("http.ingest"), untraced_batch_ms.Take()),
              "%");
  return true;
}

}  // namespace perfbench
