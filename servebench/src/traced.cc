#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "daemon/wire.h"
#include "serving.h"

namespace servebench {

namespace db = mirror::db;
namespace moa = mirror::moa;
namespace wire = mirror::daemon::wire;
using mirror::base::Status;
using Clock = std::chrono::steady_clock;

std::vector<SetData> MakeSets(const Inputs& in, bool library) {
  std::vector<SetData> sets;
  if (library && !in.lib_year.empty()) {
    SetData lib{"Lib",
                "define Lib as SET<TUPLE<Atomic<int>: year, Atomic<int>: "
                "rating, CONTREP<Text>: doc>>;",
                {}};
    lib.rows.reserve(in.lib_year.size());
    for (size_t d = 0; d < in.lib_year.size(); ++d) {
      std::vector<std::string> terms;
      for (uint32_t e = in.doc_begin[d]; e < in.doc_begin[d + 1]; ++e) {
        for (uint32_t k = 0; k < in.entry_tf[e]; ++k) {
          terms.push_back(TermName(in.entry_term[e]));
        }
      }
      lib.rows.push_back(moa::MoaValue::Tuple(
          {moa::MoaValue::Int(in.lib_year[d]),
           moa::MoaValue::Int(in.lib_rating[d]),
           moa::MoaValue::ContRep(std::move(terms))}));
    }
    sets.push_back(std::move(lib));
  }
  SetData cat{"Cat",
              "define Cat as SET<TUPLE<Atomic<int>: year, Atomic<int>: "
              "rating, Atomic<int>: ref>>;",
              {}};
  cat.rows.reserve(in.cat_year.size());
  for (size_t i = 0; i < in.cat_year.size(); ++i) {
    cat.rows.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(in.cat_year[i]),
                                             moa::MoaValue::Int(in.cat_rating[i]),
                                             moa::MoaValue::Int(in.cat_ref[i])}));
  }
  sets.push_back(std::move(cat));
  SetData log{"Log", "define Log as SET<TUPLE<Atomic<int>: v>>;", {}};
  log.rows.reserve(in.log_v.size());
  for (int64_t v : in.log_v) {
    log.rows.push_back(moa::MoaValue::Tuple({moa::MoaValue::Int(v)}));
  }
  sets.push_back(std::move(log));
  return sets;
}

Status LoadSets(db::MirrorDb* database, std::vector<SetData> sets) {
  for (SetData& set : sets) {
    Status s = database->Define(set.define);
    if (!s.ok()) return s;
    s = database->Load(set.name, std::move(set.rows));
    if (!s.ok()) return s;
  }
  return Status();
}

moa::QueryContext Bindings(const Request& req) {
  moa::QueryContext ctx;
  if (!req.terms.empty()) ctx.BindTerms("query", req.terms);
  return ctx;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// A benchmark-side span: one call into a public function of a layer.
struct Span {
  std::string name;
  uint64_t request = 0;  // spans of one request share this id
  int64_t parent = -1;   // index of the enclosing span, -1 = root
  double start_us = 0;   // since the replay began
  double end_us = 0;
};

/// Writes spans as Chrome trace-event JSON (Perfetto opens it).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // One track per request keeps every request's spans nested.
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"request\":%llu}}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.request),
                  s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return out.good();
}

/// Records spans relative to one epoch; Open/Close nest by index.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  size_t Open(const std::string& name, uint64_t request, int64_t parent) {
    spans_.push_back({name, request, parent, Now(), 0});
    return spans_.size() - 1;
  }
  /// Closes span `i`; returns its duration in milliseconds.
  double Close(size_t i) {
    spans_[i].end_us = Now();
    return (spans_[i].end_us - spans_[i].start_us) / 1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace

bool TracedReplay(const Inputs& in, const Reference& ref,
                  const std::vector<Request>& requests,
                  const std::vector<std::vector<int64_t>>& batches,
                  const std::string& dir, const std::string& spans_path,
                  std::vector<Metric>* metrics, std::string* err) {
  namespace fs = std::filesystem;
  const std::string wal = dir + "/wal.log", ckpt = dir + "/ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SpanLog log;
  std::vector<double> prepare, instrs, engine, engine1, encode, decode, kb;
  std::vector<double> append, merge;
  auto fail = [&](const std::string& what, const Status& s) {
    *err = what + ": " + s.ToString();
    return false;
  };
  {
    db::MirrorDb database;
    std::vector<SetData> sets = MakeSets(in, true);
    size_t setup = log.Open("setup", 0, -1);
    Status s = LoadSets(&database, std::move(sets));
    if (!s.ok()) return fail("load", s);
    log.Close(setup);

    db::QueryOptions defaults;  // the server's default session options
    db::QueryOptions one_thread;
    one_thread.exec.num_threads = 1;
    mirror::monet::mil::ExecutionContext session, session1;
    LogWindow none{{0}, {0}};
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& req = requests[i];
      const uint64_t id = i + 1;
      moa::QueryContext ctx = Bindings(req);
      size_t root = log.Open(std::string("request.") + KindName(req.kind), id,
                             -1);
      size_t sp = log.Open("moa.prepare", id, static_cast<int64_t>(root));
      auto prepared = database.Prepare(req.text, ctx, defaults, nullptr);
      prepare.push_back(log.Close(sp));
      if (!prepared.ok()) return fail(req.text, prepared.status());
      const auto& program = prepared.value().program;
      instrs.push_back(static_cast<double>(program.instrs().size()));
      // Each execution starts recycler-cold, as a fresh request does.
      database.recycler()->Fence();
      sp = log.Open("monet.execute", id, static_cast<int64_t>(root));
      auto out = database.ExecuteProgram(program, defaults, &session);
      engine.push_back(log.Close(sp));
      if (!out.ok()) return fail(req.text, out.status());
      database.recycler()->Fence();
      sp = log.Open("monet.execute_1t", id, static_cast<int64_t>(root));
      auto out1 = database.ExecuteProgram(program, one_thread, &session1);
      engine1.push_back(log.Close(sp));
      if (!out1.ok()) return fail(req.text, out1.status());
      sp = log.Open("daemon.encode", id, static_cast<int64_t>(root));
      std::vector<uint8_t> bytes = wire::EncodeResultReply(out.value());
      encode.push_back(log.Close(sp));
      kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
      sp = log.Open("daemon.decode", id, static_cast<int64_t>(root));
      auto decoded = wire::DecodeResultReply(bytes);
      decode.push_back(log.Close(sp));
      log.Close(root);
      if (!decoded.ok()) return fail("decode", decoded.status());
      const auto& r = decoded.value();
      Reply reply = ReduceReply(r.is_scalar,
                                r.is_scalar ? r.scalar.AsDouble() : 0,
                                r.is_scalar ? nullptr : r.bat.get());
      std::string bad = ref.Check(req, reply, &none);
      if (!bad.empty()) {
        *err = "in-process " + std::string(KindName(req.kind)) + ": " + bad;
        return false;
      }
    }
  }
  {
    // Writes and restart run on the durable sets alone: a checkpointed
    // CONTREP library cannot be restarted in a run (README.md).
    db::MirrorDb database;
    std::vector<SetData> sets = MakeSets(in, false);
    size_t setup = log.Open("setup.durable", 0, -1);
    Status s = LoadSets(&database, std::move(sets));
    if (s.ok()) s = database.AttachWal(wal);
    if (s.ok()) s = database.Checkpoint(ckpt);
    log.Close(setup);
    if (!s.ok()) return fail("durable setup", s);
    for (size_t j = 0; j < batches.size(); ++j) {
      const uint64_t id = requests.size() + j + 1;
      size_t root = log.Open("request.append", id, -1);
      size_t sp = log.Open("wal.append", id, static_cast<int64_t>(root));
      auto ack = database.Append("Log.v",
                                 mirror::monet::Column::MakeInts(batches[j]));
      append.push_back(log.Close(sp));
      if (!ack.ok()) return fail("append", ack.status());
      sp = log.Open("catalog.merge", id, static_cast<int64_t>(root));
      auto merged = database.catalog()->Get("Log.v");
      merge.push_back(log.Close(sp));
      log.Close(root);
      if (!merged.ok()) return fail("merge", merged.status());
    }
  }

  // Restart from the checkpoint and the log the replay wrote.
  const uint64_t rid = requests.size() + batches.size() + 1;
  db::MirrorDb restarted;
  size_t root = log.Open("restart", rid, -1);
  size_t sp = log.Open("recovery.open", rid, static_cast<int64_t>(root));
  Status s = restarted.Recover(ckpt, wal, db::RecoveryMode::kLazy,
                               /*background_drain=*/false);
  double open_ms = log.Close(sp);
  if (!s.ok()) return fail("recover", s);
  sp = log.Open("recovery.first_touch", rid, static_cast<int64_t>(root));
  s = restarted.EnsureRecovered({"Log.v"});
  double touch_ms = log.Close(sp);
  if (!s.ok()) return fail("first touch", s);
  sp = log.Open("recovery.drain", rid, static_cast<int64_t>(root));
  s = restarted.DrainRecovery();
  double drain_ms = log.Close(sp);
  log.Close(root);
  if (!s.ok()) return fail("drain", s);
  auto total = restarted.Query(LogTotalRequest().text, moa::QueryContext());
  if (!total.ok()) return fail("count after restart", total.status());
  const double want = static_cast<double>(in.log_v.size()) +
                      static_cast<double>(batches.size() * kAppendBatch);
  if (total.value().scalar.AsDouble() != want) {
    *err = "restarted log holds " +
           std::to_string(total.value().scalar.AsDouble()) + " rows, want " +
           std::to_string(want);
    return false;
  }
  const double replayed =
      static_cast<double>(restarted.recovery_stats().wal_replayed_records);
  fs::remove_all(dir);

  auto add = [&](const char* name, double v, const char* unit) {
    metrics->push_back({name, v, unit});
  };
  // Means, not medians: the few full rankings carry most of the bytes.
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  add("daemon.encode_ms", mean(encode), "ms");
  add("daemon.decode_ms", mean(decode), "ms");
  add("daemon.result_kb", mean(kb), "KB");
  add("moa.prepare_ms", Quantile(prepare, 0.5), "ms");
  add("moa.mil_instructions", Quantile(instrs, 0.5), "count");
  add("monet.engine_ms", Quantile(engine, 0.5), "ms");
  add("monet.engine_1t_ms", Quantile(engine1, 0.5), "ms");
  add("wal.append_ms", Quantile(append, 0.5), "ms");
  add("catalog.merge_ms", Quantile(merge, 0.5), "ms");
  add("recovery.open_ms", open_ms, "ms");
  add("recovery.first_touch_ms", touch_ms, "ms");
  add("recovery.drain_ms", drain_ms, "ms");
  add("recovery.replayed_records", replayed, "count");
  if (!WriteSpans(log.spans(), spans_path)) {
    *err = "could not write " + spans_path;
    return false;
  }
  std::printf("traced replay: %zu queries, %zu appends, %zu spans -> %s\n",
              requests.size(), batches.size(), log.spans().size(),
              spans_path.c_str());
  return true;
}

}  // namespace servebench
