// Pieces shared by the serving process and the in-process traced replay.

#ifndef SERVEBENCH_SERVING_H_
#define SERVEBENCH_SERVING_H_

#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "mirror/mirror_db.h"
#include "workload.h"

namespace servebench {

/// One set as the server is handed it: its Define statement and rows.
struct SetData {
  std::string name;
  std::string define;
  std::vector<mirror::moa::MoaValue> rows;
};

/// Builds Cat, Log and, when `library` and the inputs hold documents, the
/// CONTREP library Lib from the inputs. This is input preparation, not
/// set-up: no call into the database is made.
std::vector<SetData> MakeSets(const Inputs& in, bool library);

/// Defines and loads `sets` in order.
mirror::base::Status LoadSets(mirror::db::MirrorDb* database,
                              std::vector<SetData> sets);

/// Binds the request's terms (rankings) as `query`.
mirror::moa::QueryContext Bindings(const Request& req);

/// One named metric as printed and reported.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Quantile q in [0, 1] of `v` (linear interpolation); 0 when empty.
double Quantile(std::vector<double> v, double q);

/// The in-process replay of the traced run: builds a MirrorDb from the
/// same inputs and replays `requests` through the public MirrorDb and
/// wire functions with a span around each call; then loads the durable
/// sets (Cat, Log) into a second one with a WAL and a checkpoint in
/// `dir`, replays `batches` as Log APPENDs, and restarts it with
/// Recover(kLazy). Appends the
/// per-layer metrics it measures and returns false (with `err`) when a
/// call fails or an answer is wrong.
bool TracedReplay(const Inputs& in, const Reference& ref,
                  const std::vector<Request>& requests,
                  const std::vector<std::vector<int64_t>>& batches,
                  const std::string& dir, const std::string& spans_path,
                  std::vector<Metric>* metrics, std::string* err);

}  // namespace servebench

#endif  // SERVEBENCH_SERVING_H_
