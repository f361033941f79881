// servebench: the serving benchmark of the Mirror DBMS.
//
// One run starts the query daemon (daemon::QueryServer over a
// db::MirrorDb, default Options and session settings) in a process of its
// own, hands it the seeded inputs, and drives it over loopback TCP with
// wire::WireClient connections from this process: open-loop segments at a
// fixed offered rate alternating with closed-loop segments, APPENDs at a
// fixed rate and, on ingest_mix, a SIGKILL followed by a lazy restart.
// Every reply is checked against the benchmark's own reference answers.
// The last line of stdout is the JSON result. See README.md for the
// workloads and the metrics.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   servebench selftest        (checker self-test only)
//   servebench serve|recover <dir> <checkpoint 0|1>   (the serving process)

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "monet/cache_info.h"
#include "serving.h"

namespace {

namespace sb = servebench;
namespace db = mirror::db;
namespace wire = mirror::daemon::wire;
using Clock = std::chrono::steady_clock;
using sb::Metric;
using sb::Quantile;

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kConnections = 4;  // = nproc of the reference host
constexpr int kWriters = 1;
constexpr size_t kHotPool = 300;
constexpr int kCycles = 5;  // open/closed segment pairs per run
constexpr double kReadyTimeoutS = 60;  // a run must end within 180 s

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------------
// The serving process.

int ServeMain(const std::string& mode, const std::string& dir,
              bool checkpoint) {
  db::MirrorDb database;
  const std::string wal = dir + "/wal.log", ckpt = dir + "/ckpt";
  mirror::base::Status s;
  // setup_s: the database calls that take the inputs. Reading them and
  // building their rows comes first and is not timed.
  Clock::duration setup{};
  if (mode == "serve") {
    sb::Inputs in;
    if (!sb::ReadInputs(dir + "/inputs.bin", &in)) {
      std::fprintf(stderr, "serve: cannot read inputs\n");
      return 2;
    }
    std::vector<sb::SetData> sets = sb::MakeSets(in, true);
    const auto start = Clock::now();
    s = sb::LoadSets(&database, std::move(sets));
    if (s.ok()) s = database.AttachWal(wal);
    if (s.ok() && checkpoint) s = database.Checkpoint(ckpt);
    setup = Clock::now() - start;
  } else {
    s = database.Recover(ckpt, wal, db::RecoveryMode::kLazy,
                         /*background_drain=*/true);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", mode.c_str(), s.ToString().c_str());
    return 2;
  }
  mirror::daemon::QueryServer server(&database);
  auto port = server.ListenTcp(0);
  if (!port.ok()) {
    std::fprintf(stderr, "listen: %s\n", port.status().ToString().c_str());
    return 2;
  }
  std::printf("READY %d %.9f\n", port.value(), Ms(setup) / 1e3);
  std::fflush(stdout);
  // Serve until the benchmark closes our stdin or kills us.
  char buf[64];
  while (::read(0, buf, sizeof(buf)) > 0) {
  }
  std::_Exit(0);
}

struct ServerProc {
  pid_t pid = -1;
  int to_child = -1;
  int port = 0;
  double setup_s = 0;
};

/// Starts `serve` or `recover` on `dir` in a fresh process (this binary
/// re-executed) and waits for its READY line.
bool Spawn(const std::string& mode, const std::string& dir, bool checkpoint,
           ServerProc* out, std::string* err) {
  int in_pipe[2], out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *err = "pipe failed";
    return false;
  }
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    *err = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    ::execl("/proc/self/exe", "servebench", mode.c_str(), dir.c_str(),
            checkpoint ? "1" : "0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  out->pid = pid;
  out->to_child = in_pipe[1];
  std::string line;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kReadyTimeoutS));
  while (line.find('\n') == std::string::npos) {
    int left = static_cast<int>(Ms(deadline - Clock::now()));
    pollfd p{out_pipe[0], POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, left) <= 0) break;
    char buf[256];
    ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  ::close(out_pipe[0]);
  if (std::sscanf(line.c_str(), "READY %d %lf", &out->port, &out->setup_s) !=
      2) {
    *err = mode + " process did not come up";
    return false;
  }
  return true;
}

void Kill(ServerProc* p) {
  if (p->pid > 0) {
    ::kill(p->pid, SIGKILL);
    int status = 0;
    ::waitpid(p->pid, &status, 0);
    p->pid = -1;
  }
  if (p->to_child >= 0) {
    ::close(p->to_child);
    p->to_child = -1;
  }
}

double PeakRssMb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The load generator.

/// Lets the calling thread's sleeps end at their deadline: under the
/// default 50 us timer slack every open-loop send would start late by tens
/// of microseconds, which on hot_browse is a large share of a reply's
/// latency. Only the generator's threads set it; the server keeps the
/// default.
void WakeOnTime() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

enum class Workload { kLibrarySearch, kHotBrowse, kIngestMix };

struct Config {
  Workload workload = Workload::kLibrarySearch;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".servebench_run";
  std::string outdir = ".servebench_out";
};

/// Offered rates and phase shares. Open-loop read rates are about half of
/// what the closed loop sustains on the reference host (README.md).
struct Plan {
  double warmup_s;
  double open_s, closed_s, append_s;  // phases, seconds
  int readers;                        // reader connections
  double read_rate;                   // open loop, queries/s in total
  double append_rate;                 // APPENDs/s of the writer
  bool writes_during_reads;           // ingest_mix: writers run throughout
  bool library;                       // serves the CONTREP library Lib
  bool restart;                       // checkpoint, SIGKILL, lazy restart
};

Plan MakePlan(const Config& c) {
  const double s = c.seconds;
  switch (c.workload) {
    case Workload::kLibrarySearch:
      return {0.05 * s, 0.65 * s, 0.15 * s, 0.15 * s, kConnections, 35, 1000,
              false, true, false};
    case Workload::kHotBrowse:
      return {0.05 * s, 0.55 * s, 0.25 * s, 0.15 * s, kConnections, 40000,
              1000, false, true, false};
    case Workload::kIngestMix:
      return {0.05 * s, 0.7 * s, 0.25 * s, 0, kConnections - kWriters, 40,
              10, true, false, true};
  }
  return {};
}

/// One completed request, kept for the checks after the phase.
struct Done {
  sb::Request req;
  sb::Reply reply;
  sb::LogWindow window;
};

struct Recorder {
  std::vector<double> latency_ms, late_ms;   // queries
  std::vector<double> by_kind[sb::kNumKinds];  // latency by request kind
  std::vector<double> append_ms, append_late_ms;
  std::vector<Done> done;
  uint64_t attempted = 0, failed = 0, appends_acked = 0;
  // Hot-pool replies identical to the first reply this connection got for
  // the same pool entry in the run; they are counted, not kept.
  uint64_t repeats = 0;
  // The load generator's own time between a reply and the next send
  // (meaningful in closed loop, where nothing else separates them).
  double client_ms = 0;
  Clock::time_point last_reply{};
  std::vector<std::string> errors;
  // Traced runs: per-request span aggregates from the TRACE tables.
  std::vector<std::map<std::string, double>> traces;
};

/// True when `r` is the reply `first` was reduced from.
bool SameReply(const sb::Reply& first, const wire::ResultReply& r) {
  if (first.is_scalar != r.is_scalar) return false;
  if (r.is_scalar) return first.scalar == r.scalar.AsDouble();
  const mirror::monet::Bat* bat = r.bat.get();
  const size_t n = bat == nullptr ? 0 : bat->size();
  if (n != first.rows.size()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (bat->head().OidAt(i) != first.rows[i].first ||
        bat->tail().NumAt(i) != first.rows[i].second) {
      return false;
    }
  }
  return true;
}

class Runner {
 public:
  Runner(const Config& cfg, const sb::Inputs& in)
      : cfg_(cfg), in_(in), plan_(MakePlan(cfg)) {
    if (cfg.workload != Workload::kLibrarySearch) {
      pool_ = sb::HotPool(cfg.seed, kHotPool, in.sizes);
    }
    for (auto& slots : first_reply_) slots.resize(pool_.size());
  }

  bool Connect(int port, std::string* err) {
    clients_.clear();
    for (int c = 0; c < kConnections; ++c) {
      auto conn = wire::TcpConnect("127.0.0.1", port);
      if (!conn.ok()) {
        *err = conn.status().ToString();
        return false;
      }
      auto client =
          std::make_unique<wire::WireClient>(std::move(conn).TakeValue());
      auto hello = client->Hello("servebench-" + std::to_string(c));
      if (!hello.ok()) {
        *err = hello.status().ToString();
        return false;
      }
      if (cfg_.trace && c < plan_.readers) {
        auto set = client->Set({{"exec.trace", 1}});
        if (!set.ok()) {
          *err = set.status().ToString();
          return false;
        }
      }
      clients_.push_back(std::move(client));
    }
    return true;
  }

  /// The request `i` of read stream `stream`: a hot-pool entry, or a
  /// fresh request built into `*fresh`.
  const sb::Request& NextRequest(uint64_t stream, uint64_t i,
                                 sb::Request* fresh) const {
    switch (cfg_.workload) {
      case Workload::kLibrarySearch:
        return *fresh = sb::SearchRequest(cfg_.seed, stream, i, in_.sizes);
      case Workload::kHotBrowse:
        break;
      case Workload::kIngestMix:
        if (i % 4 == 0) {  // one fresh Log count in four requests
          return *fresh = sb::LogCountRequest(cfg_.seed, stream, i, in_.sizes);
        }
        break;
    }
    return pool_[sb::PoolPick(cfg_.seed, stream, i, pool_.size())];
  }

  sb::LogWindow Window(bool sent) const {
    sb::LogWindow w;
    for (int k = 0; k < kWriters; ++k) {
      (sent ? w.sent_before : w.acked_before)
          .push_back((sent ? sent_ : acked_)[k].load());
    }
    return w;
  }

  /// Sends one query on connection `c` and records it.
  void OneQuery(int c, const sb::Request& req, Clock::time_point due,
                Recorder* rec) {
    wire::WireClient* client = clients_[static_cast<size_t>(c)].get();
    const bool log_query = req.kind == sb::Kind::kLogCount ||
                           req.kind == sb::Kind::kLogTotal;
    sb::LogWindow window;
    if (log_query) window.acked_before = Window(false).acked_before;
    const mirror::moa::QueryContext bindings = sb::Bindings(req);
    rec->attempted++;
    const auto send = Clock::now();
    if (rec->last_reply != Clock::time_point{}) {
      rec->client_ms += Ms(send - rec->last_reply);
    }
    auto result = client->Query(req.text, bindings);
    const auto end = Clock::now();
    rec->last_reply = end;
    if (!result.ok()) {
      rec->failed++;
      if (rec->errors.size() < 5) {
        rec->errors.push_back(std::string(sb::KindName(req.kind)) + ": " +
                              result.status().ToString());
      }
      return;
    }
    if (log_query) window.sent_before = Window(true).sent_before;
    rec->latency_ms.push_back(Ms(end - due));
    rec->by_kind[static_cast<int>(req.kind)].push_back(Ms(end - send));
    rec->late_ms.push_back(Ms(send - due));
    const auto& r = result.value();
    if (cfg_.trace) {
      Traced(c, r.is_scalar ? 1 : (r.bat ? r.bat->size() : 0), rec);
    }
    std::optional<sb::Reply>* first =
        req.pool_index < 0
            ? nullptr
            : &first_reply_[c][static_cast<size_t>(req.pool_index)];
    if (first != nullptr && first->has_value() && SameReply(**first, r)) {
      rec->repeats++;
      return;
    }
    Done d;
    d.reply = sb::ReduceReply(r.is_scalar, r.is_scalar ? r.scalar.AsDouble() : 0,
                              r.is_scalar ? nullptr : r.bat.get());
    d.req = req;
    d.window = std::move(window);
    if (first != nullptr && !first->has_value()) *first = d.reply;
    rec->done.push_back(std::move(d));
  }

  /// Traced runs: fetches the session's TRACE table and sums the
  /// instruction spans of the query that just ran, by opcode family.
  void Traced(int c, size_t rows_out, Recorder* rec) {
    auto stats = clients_[static_cast<size_t>(c)]->Trace();
    if (!stats.ok() || stats.value().rows == 0) return;
    const wire::TraceReply& t = stats.value();
    // A result-cache hit executes nothing and leaves the previous trace.
    if (t.query_seq == last_seq_[c]) return;
    last_seq_[c] = t.query_seq;
    auto col = [&](const char* name) -> const mirror::monet::Bat* {
      for (size_t i = 0; i < t.names.size(); ++i) {
        if (t.names[i] == name) return &t.cols[i];
      }
      return nullptr;
    };
    const auto *opcode = col("opcode"), *kind = col("kind"), *dur = col("dur_ns"),
               *tin = col("tuples_in"), *zone = col("zone_skips"),
               *topk = col("topk_prunes");
    if (!opcode || !kind || !dur || !tin || !zone || !topk) return;
    std::map<std::string, double> agg;
    double tuples_in = 0;
    for (size_t i = 0; i < t.rows; ++i) {
      if (kind->tail().IntAt(i) != 0) continue;  // morsel spans nest inside
      std::string op(opcode->tail().StrAt(i));
      if (op.rfind("select", 0) == 0) op = "select";
      agg["op." + op] += static_cast<double>(dur->tail().IntAt(i)) / 1e6;
      tuples_in += static_cast<double>(tin->tail().IntAt(i));
      agg["zone"] += static_cast<double>(zone->tail().IntAt(i));
      agg["topk"] += static_cast<double>(topk->tail().IntAt(i));
    }
    agg["tuples_in_per_row_out"] =
        tuples_in / std::max(1.0, static_cast<double>(rows_out));
    rec->traces.push_back(std::move(agg));
  }

  void OneAppend(wire::WireClient* client, int w, Recorder* rec) {
    const uint64_t j = sent_[w].load();
    std::vector<int64_t> batch = sb::AppendBatch(cfg_.seed, w, j, in_.sizes);
    rec->attempted++;
    sent_[w].store(j + 1);
    const auto send = Clock::now();
    auto ack = client->Append("Log.v", mirror::monet::Column::MakeInts(batch));
    const auto end = Clock::now();
    if (!ack.ok()) {
      rec->failed++;
      if (rec->errors.size() < 5) {
        rec->errors.push_back("append: " + ack.status().ToString());
      }
      return;
    }
    acked_[w].store(j + 1);
    rec->appends_acked++;
    rec->append_ms.push_back(Ms(end - send));
  }

  // kPool: every hot-pool request once, closed loop, then stop.
  enum class Reads { kNone, kOpen, kClosed, kPool };

  /// Runs one phase: readers in the given mode on connections
  /// [0, readers), the writer (if `writes`) on the last connection at the
  /// plan's append rate. Returns the phase's wall time in seconds.
  double Phase(uint64_t stream, double seconds, Reads reads, double rate,
               bool writes, std::vector<Recorder>* recs) {
    recs->assign(kConnections, Recorder());
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> threads;
    Clock::time_point last_done = start;
    std::mutex last_mu;
    if (reads != Reads::kNone) {
      const double period_s = 1.0 / rate;
      for (int c = 0; c < plan_.readers; ++c) {
        threads.emplace_back([&, c] {
          WakeOnTime();
          Recorder* rec = &(*recs)[c];
          sb::Request fresh;
          for (;;) {
            const uint64_t i = next.fetch_add(1);
            Clock::time_point due = Clock::now();
            if (reads == Reads::kOpen) {
              due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) * period_s));
              if (due >= end) break;
              std::this_thread::sleep_until(due);
            } else if (reads == Reads::kPool) {
              if (i >= pool_.size()) break;
              OneQuery(c, pool_[i], due, rec);
              continue;
            } else if (due >= end) {
              break;
            }
            OneQuery(c, NextRequest(stream, i, &fresh), due, rec);
          }
          std::lock_guard<std::mutex> l(last_mu);
          last_done = std::max(last_done, Clock::now());
        });
      }
    }
    if (writes) {
      threads.emplace_back([&] {
        WakeOnTime();
        const int c = kConnections - 1;
        Recorder* rec = &(*recs)[c];
        const double period_s = 1.0 / plan_.append_rate;
        for (uint64_t k = 0;; ++k) {
          auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(k) * period_s));
          if (due >= end) break;
          std::this_thread::sleep_until(due);
          rec->append_late_ms.push_back(Ms(Clock::now() - due));
          OneAppend(clients_[c].get(), 0, rec);
        }
      });
    }
    for (auto& t : threads) t.join();
    return Ms(last_done - start) / 1e3;
  }

  const std::vector<std::unique_ptr<wire::WireClient>>& clients() const {
    return clients_;
  }

 private:
  const Config& cfg_;
  const sb::Inputs& in_;
  Plan plan_;
  std::vector<sb::Request> pool_;
  std::vector<std::unique_ptr<wire::WireClient>> clients_;
  // APPEND batches sent / acked per writer: the ledger Log counts are
  // checked against.
  std::atomic<uint64_t> sent_[kWriters] = {};
  std::atomic<uint64_t> acked_[kWriters] = {};
  // Slot c belongs to connection c's thread: the first reply it got for
  // each hot-pool entry, and the sequence number of its last TRACE.
  std::vector<std::optional<sb::Reply>> first_reply_[kConnections];
  uint64_t last_seq_[kConnections] = {};
};

/// Merges phase recorders into one.
Recorder Merge(std::vector<Recorder>* recs) {
  Recorder all;
  for (Recorder& r : *recs) {
    auto cat = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    cat(&all.latency_ms, r.latency_ms);
    cat(&all.late_ms, r.late_ms);
    cat(&all.append_ms, r.append_ms);
    cat(&all.append_late_ms, r.append_late_ms);
    for (int k = 0; k < sb::kNumKinds; ++k) cat(&all.by_kind[k], r.by_kind[k]);
    for (auto& d : r.done) all.done.push_back(std::move(d));
    for (auto& t : r.traces) all.traces.push_back(std::move(t));
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.appends_acked += r.appends_acked;
    all.repeats += r.repeats;
    for (auto& e : r.errors) all.errors.push_back(e);
  }
  return all;
}

std::string Fingerprint() {
  const char* sha = std::getenv("SERVEBENCH_SOURCE");
  return mirror::base::StrFormat(
      "host: nproc=%u l2=%zuKiB compiler=\"%s\" build=%s source=%s",
      std::thread::hardware_concurrency(), mirror::monet::L2CacheBytes() / 1024,
      __VERSION__, SERVEBENCH_BUILD_TYPE, sha == nullptr ? "unknown" : sha);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = mirror::base::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += mirror::base::StrFormat("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                                    i ? ", " : "", metrics[i].name.c_str(),
                                    metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Removes the run's work directory (WAL, checkpoint, inputs) on exit.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    // The parent goes too unless another run still uses it.
    std::filesystem::remove(std::filesystem::path(path).parent_path(), ec);
  }
};

int Run(const Config& cfg) {
  std::printf("%s\n", Fingerprint().c_str());
  std::printf("workload=%s seed=%llu seconds=%.0f trace=%d\n", cfg.name.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::string bad = sb::CheckerSelfTest();
  if (!bad.empty()) {
    std::printf("checker self-test failed: %s\n", bad.c_str());
    return 1;
  }

  const Plan plan = MakePlan(cfg);
  sb::DataSizes sizes;
  if (!plan.library) sizes.docs = 0;
  auto t = Clock::now();
  const sb::Inputs in = sb::GenerateInputs(cfg.seed, sizes);
  const sb::Reference ref(in, cfg.seed);
  WorkDir work{cfg.workdir + "/" + std::to_string(::getpid())};
  std::filesystem::remove_all(work.path);
  std::filesystem::create_directories(work.path);
  if (!sb::WriteInputs(in, work.path + "/inputs.bin")) {
    std::printf("cannot write inputs under %s\n", work.path.c_str());
    return 1;
  }
  std::printf("inputs: %lld docs, %zu postings, %lld catalogue rows, %lld log "
              "rows (generated in %.2f s, not timed)\n",
              static_cast<long long>(sizes.docs), in.entry_term.size(),
              static_cast<long long>(sizes.cat_rows),
              static_cast<long long>(sizes.log_rows), Ms(Clock::now() - t) / 1e3);

  std::string err;
  ServerProc server;
  struct Reaper {
    ServerProc* p;
    ~Reaper() { Kill(p); }
  } reap{&server};
  if (!Spawn("serve", work.path, plan.restart, &server, &err)) {
    std::printf("setup failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("setup: %.3f s (Define, Load, AttachWal%s)\n",
              server.setup_s, plan.restart ? ", Checkpoint" : "");

  Runner runner(cfg, in);
  if (!runner.Connect(server.port, &err)) {
    std::printf("connect failed: %s\n", err.c_str());
    return 1;
  }
  auto* stats_client = runner.clients()[0].get();
  auto stats = [&](bool reset) -> wire::StatsReply {
    auto r = stats_client->Stats(reset);
    if (!r.ok()) {
      err = r.status().ToString();
      return {};
    }
    return r.value();
  };

  using Reads = Runner::Reads;
  const bool mixed = plan.writes_during_reads;
  std::vector<Recorder> warm, open, closed, appends, seg;
  auto keep = [&seg](std::vector<Recorder>* to) {
    for (auto& r : seg) to->push_back(std::move(r));
  };
  if (cfg.workload != Workload::kLibrarySearch) {
    runner.Phase(0, 0, Reads::kPool, 0, false, &seg);
    keep(&warm);
  }
  runner.Phase(1, plan.warmup_s, Reads::kClosed, 0, mixed, &seg);
  keep(&warm);
  stats(true);  // the server's histograms cover the measured phases only
  // Open- and closed-loop segments alternate, so both sample the whole run.
  double closed_s = 0;
  for (int k = 0; k < kCycles; ++k) {
    runner.Phase(10 + static_cast<uint64_t>(k), plan.open_s / kCycles,
                 Reads::kOpen, plan.read_rate, mixed, &seg);
    std::vector<double> lat;
    for (const auto& r : seg) {
      lat.insert(lat.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
    keep(&open);
    const double t = runner.Phase(20 + static_cast<uint64_t>(k),
                                  plan.closed_s / kCycles, Reads::kClosed, 0,
                                  mixed, &seg);
    closed_s += t;
    size_t n = 0;
    for (const auto& r : seg) n += r.done.size() + r.repeats;
    std::printf("cycle %d: open loop p50=%.3f ms, closed loop %.1f/s\n", k,
                Quantile(lat, 0.5), static_cast<double>(n) / t);
    keep(&closed);
  }
  // Taken before the APPEND segment, whose fences empty the recycler.
  const wire::StatsReply read_stats = stats(false);
  if (plan.append_s > 0) {
    runner.Phase(4, plan.append_s, Reads::kNone, 0, true, &seg);
    keep(&appends);
  }
  const wire::StatsReply final_stats = stats(false);
  if (!err.empty()) {
    std::printf("STATS failed: %s\n", err.c_str());
    return 1;
  }
  const double rss_mb = PeakRssMb(server.pid);

  Recorder w = Merge(&warm), o = Merge(&open), c = Merge(&closed),
           a = Merge(&appends);
  auto completed = [](const Recorder& r) { return r.done.size() + r.repeats; };
  const uint64_t queries_done =
      completed(w) + completed(o) + completed(c) + completed(a);
  uint64_t attempted = w.attempted + o.attempted + c.attempted + a.attempted;
  uint64_t failed = w.failed + o.failed + c.failed + a.failed;
  const uint64_t acks = w.appends_acked + o.appends_acked + c.appends_acked +
                        a.appends_acked;
  std::vector<std::string> problems;
  for (Recorder* r : {&w, &o, &c, &a}) {
    for (auto& e : r->errors) problems.push_back("failed: " + e);
  }
  double client_ms = 0;
  for (const Recorder& r : closed) client_ms += r.client_ms;

  // Independent totals: the server's counters against ours.
  if (final_stats.server.requests != queries_done) {
    problems.push_back(mirror::base::StrFormat(
        "STATS requests %llu != %llu queries completed",
        static_cast<unsigned long long>(final_stats.server.requests),
        static_cast<unsigned long long>(queries_done)));
  }
  if (final_stats.server.wal_appends != acks) {
    problems.push_back(mirror::base::StrFormat(
        "STATS wal_appends %llu != %llu APPEND acks",
        static_cast<unsigned long long>(final_stats.server.wal_appends),
        static_cast<unsigned long long>(acks)));
  }

  // Crash and lazy restart.
  double first_ms = 0, drained_ms = 0;
  const double setup_s = server.setup_s;
  if (plan.restart && !cfg.trace) {
    Kill(&server);
    const auto t0 = Clock::now();
    if (!Spawn("recover", work.path, false, &server, &err)) {
      std::printf("restart failed: %s\n", err.c_str());
      return 1;
    }
    auto conn = wire::TcpConnect("127.0.0.1", server.port);
    if (!conn.ok()) {
      std::printf("restart connect: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    wire::WireClient client(std::move(conn).TakeValue());
    attempted += 1;
    sb::Request probe = sb::LogTotalRequest();
    auto hello = client.Hello("servebench-restart");
    auto result = hello.ok() ? client.Query(probe.text, sb::Bindings(probe))
                             : mirror::base::Result<wire::ResultReply>(hello.status());
    if (!result.ok()) {
      failed += 1;
      problems.push_back("restart probe: " + result.status().ToString());
    } else {
      first_ms = Ms(Clock::now() - t0);
      Done d;
      d.req = probe;
      d.reply = sb::ReduceReply(true, result.value().scalar.AsDouble(), nullptr);
      d.window = runner.Window(false);
      d.window.sent_before = runner.Window(true).sent_before;
      std::string bad_probe = ref.Check(d.req, d.reply, &d.window);
      if (!bad_probe.empty()) problems.push_back("after restart: " + bad_probe);
      for (;;) {
        auto s = client.Stats();
        if (!s.ok()) {
          problems.push_back("restart STATS: " + s.status().ToString());
          break;
        }
        if (s.value().server.recovery_pending == 0) {
          drained_ms = Ms(Clock::now() - t0);
          break;
        }
        if (Ms(Clock::now() - t0) > 30e3) {
          problems.push_back("recovery never drained");
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  Kill(&server);

  // Check every kept reply against the reference answers.
  uint64_t wrong = 0;
  for (Recorder* r : {&w, &o, &c, &a}) {
    for (const Done& d : r->done) {
      const bool log_query = d.req.kind == sb::Kind::kLogCount;
      std::string why = ref.Check(d.req, d.reply, log_query ? &d.window : nullptr);
      if (!why.empty() && ++wrong <= 5) {
        problems.push_back(std::string("wrong ") + sb::KindName(d.req.kind) +
                           ": " + why);
      }
    }
  }

  const double p50 = Quantile(o.latency_ms, 0.5), p99 = Quantile(o.latency_ms, 0.99);
  const double qps = static_cast<double>(completed(c)) / closed_s;
  std::vector<double> app_all, app_late;
  for (const Recorder* r : {&o, &c, &a}) {
    app_all.insert(app_all.end(), r->append_ms.begin(), r->append_ms.end());
    app_late.insert(app_late.end(), r->append_late_ms.begin(),
                    r->append_late_ms.end());
  }
  std::printf(
      "open loop: %.0f queries/s offered for %.1f s, n=%zu, p50=%.3f ms, "
      "p99=%.3f ms; generator late p50=%.3f p99=%.3f max=%.3f ms\n",
      plan.read_rate, plan.open_s, o.latency_ms.size(), p50, p99,
      Quantile(o.late_ms, 0.5), Quantile(o.late_ms, 0.99),
      Quantile(o.late_ms, 1.0));
  std::printf("closed loop: %d connections, %zu queries in %.2f s = %.1f/s; "
              "load generator between reply and next send %.2f us per query "
              "(%.1f%% of the connections' time)\n",
              plan.readers, completed(c), closed_s, qps,
              1e3 * client_ms / static_cast<double>(std::max<size_t>(1, completed(c))),
              100 * client_ms / (1e3 * closed_s * plan.readers));
  for (int k = 0; k < sb::kNumKinds; ++k) {
    if (o.by_kind[k].empty()) continue;
    std::printf("  open loop %-12s n=%-6zu send-to-reply p50=%.3f ms p99=%.3f ms\n",
                sb::KindName(static_cast<sb::Kind>(k)), o.by_kind[k].size(),
                Quantile(o.by_kind[k], 0.5), Quantile(o.by_kind[k], 0.99));
  }
  std::printf("appends: %.0f/s, n=%zu, p50=%.3f ms, p99=%.3f ms (%lld rows "
              "each); generator late p99=%.3f ms\n",
              plan.append_rate, app_all.size(), Quantile(app_all, 0.5),
              Quantile(app_all, 0.99), static_cast<long long>(sb::kAppendBatch),
              Quantile(app_late, 0.99));
  if (plan.restart && !cfg.trace) {
    std::printf("restart: first result %.2f ms, drained %.2f ms\n", first_ms,
                drained_ms);
  }
  std::printf("server: requests=%llu wal_appends=%llu result_cache_hits=%llu "
              "result_cache_misses=%llu coalesced=%llu shed=%llu "
              "peak_rss=%.1f MB\n",
              static_cast<unsigned long long>(final_stats.server.requests),
              static_cast<unsigned long long>(final_stats.server.wal_appends),
              static_cast<unsigned long long>(final_stats.server.result_cache_hits),
              static_cast<unsigned long long>(final_stats.server.result_cache_misses),
              static_cast<unsigned long long>(final_stats.server.coalesced_requests),
              static_cast<unsigned long long>(final_stats.server.requests_shed),
              rss_mb);
  std::printf("operations: attempted=%llu failed=%llu wrong=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(wrong));

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"query_p50_ms", p50, "ms"},
        {"query_qps", qps, "1/s"},
        {"append_p50_ms", Quantile(app_all, 0.5), "ms"},
        {"server_rss_mb", rss_mb, "MB"},
    };
  } else {
    auto ms = [](uint64_t micros) { return static_cast<double>(micros) / 1e3; };
    // Send-to-reply times of the queries the server histograms cover.
    std::vector<double> sent;
    for (const Recorder* r : {&o, &c}) {
      for (const auto& v : r->by_kind) sent.insert(sent.end(), v.begin(), v.end());
    }
    const auto& q = final_stats.server.latency_query;
    const auto& fs = final_stats.server;
    const double done = static_cast<double>(std::max<uint64_t>(1, queries_done));
    double hits = 0, lookups = 0;
    for (const auto& s : final_stats.sessions) {
      hits += static_cast<double>(s.plan_cache_hits);
      lookups += static_cast<double>(s.plan_cache_lookups);
    }
    // Warm-up traces count too: on hot_browse the pool pass is where the
    // engine runs.
    std::vector<std::map<std::string, double>> traces;
    for (Recorder* r : {&w, &o, &c}) {
      traces.insert(traces.end(), r->traces.begin(), r->traces.end());
    }
    auto per_request = [&](const std::string& key, bool median) {
      std::vector<double> v;
      double sum = 0;
      for (const auto& tr : traces) {
        auto it = tr.find(key);
        if (it != tr.end()) v.push_back(it->second);
        sum += it != tr.end() ? it->second : 0;
      }
      if (median) return Quantile(v, 0.5);
      return traces.empty() ? 0 : sum / static_cast<double>(traces.size());
    };
    metrics = {
        {"daemon.queue_wait_p50_ms", ms(q.queue_wait.p50_micros), "ms"},
        {"daemon.exec_p50_ms", ms(q.exec.p50_micros), "ms"},
        {"daemon.append_exec_p50_ms",
         ms(fs.latency_append.exec.p50_micros), "ms"},
        {"daemon.transport_p50_ms", Quantile(sent, 0.5) - ms(q.total.p50_micros),
         "ms"},
        {"daemon.coalesced_share",
         static_cast<double>(fs.coalesced_requests) / done, "share"},
        {"daemon.shed", static_cast<double>(fs.requests_shed), "count"},
        {"moa.plan_cache_hit_share", lookups > 0 ? hits / lookups : 0, "share"},
    };
    const char* ops[] = {"select", "semijoin", "semijoin.tail", "join",
                         "antijoin", "sum.per.head", "belief", "topn"};
    for (const char* op : ops) {
      metrics.push_back({std::string("monet.op.") + op + "_ms",
                         per_request(std::string("op.") + op, true), "ms"});
    }
    metrics.push_back({"monet.tuples_in_per_row_out",
                       per_request("tuples_in_per_row_out", true), "ratio"});
    metrics.push_back({"monet.zone_blocks_skipped", per_request("zone", false),
                       "count"});
    metrics.push_back({"monet.topk_pruned", per_request("topk", false), "count"});
    metrics.push_back({"recycler.result_hit_share",
                       static_cast<double>(fs.result_cache_hits) / done, "share"});
    metrics.push_back(
        {"recycler.candidate_hit_share",
         static_cast<double>(fs.candidate_cache_hits +
                             fs.candidate_subsumption_hits) /
             done,
         "share"});
    metrics.push_back({"recycler.held_mb",
                       static_cast<double>(
                           read_stats.server.recycler_bytes_held) /
                           (1 << 20),
                       "MB"});
    metrics.push_back({"wal.records", static_cast<double>(fs.wal_appends), "count"});
    metrics.push_back({"traced.query_p50_ms", p50, "ms"});
    std::printf("traced TCP run: %zu fresh TRACE tables\n", traces.size());

    // The in-process replay: a prefix of the same request stream.
    std::vector<sb::Request> requests;
    sb::Request fresh;
    for (uint64_t i = 0; requests.size() < 200 && i < 100000; ++i) {
      const sb::Request& r = runner.NextRequest(2, i, &fresh);
      if (r.kind == sb::Kind::kLogCount) continue;  // needs the writers' window
      requests.push_back(r);
    }
    std::vector<std::vector<int64_t>> batches;
    for (uint64_t j = 0; j < 200; ++j) {
      batches.push_back(sb::AppendBatch(cfg.seed, 0, j, in.sizes));
    }
    std::filesystem::create_directories(cfg.outdir);
    const std::string spans_path = cfg.outdir + "/spans_" + cfg.name + "_" +
                                   std::to_string(cfg.seed) + ".json";
    std::string replay_err;
    if (!sb::TracedReplay(in, ref, requests, batches, work.path + "/inproc",
                          spans_path, &metrics, &replay_err)) {
      problems.push_back("traced replay: " + replay_err);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
  const bool correct = problems.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg->name = v;
    } else if (k == "--seed") {
      cfg->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      cfg->trace = v == "1";
    } else if (k == "--workdir") {
      cfg->workdir = v;
    } else if (k == "--outdir") {
      cfg->outdir = v;
    } else {
      return false;
    }
  }
  if (cfg->name == "library_search") {
    cfg->workload = Workload::kLibrarySearch;
  } else if (cfg->name == "hot_browse") {
    cfg->workload = Workload::kHotBrowse;
  } else if (cfg->name == "ingest_mix") {
    cfg->workload = Workload::kIngestMix;
  } else {
    return false;
  }
  return cfg->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && (std::strcmp(argv[1], "serve") == 0 ||
                    std::strcmp(argv[1], "recover") == 0)) {
    return ServeMain(argv[1], argv[2], std::strcmp(argv[3], "1") == 0);
  }
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    std::string bad = servebench::CheckerSelfTest();
    std::printf("checker self-test: %s\n", bad.empty() ? "ok" : bad.c_str());
    return bad.empty() ? 0 : 1;
  }
  ::signal(SIGPIPE, SIG_IGN);
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: servebench --workload library_search|hot_browse|"
                 "ingest_mix --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return Run(cfg);
}
