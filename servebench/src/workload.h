// Seeded inputs, request streams, reference answers and the reply checker
// of the serving benchmark. Nothing here talks to the server: the
// generator produces the inputs the server is handed, and the reference
// computes every expected answer by its own arithmetic over those inputs.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "monet/bat.h"

namespace servebench {

/// Sizes of the generated data. Every workload loads the same three sets
/// (see README.md): the CONTREP library, the catalogue and the log.
struct DataSizes {
  int64_t docs = 100000;        // Lib documents
  int64_t vocab = 20000;        // distinct terms, drawn Zipf(s = 1)
  int64_t doc_len_min = 16;     // tokens per document, uniform
  int64_t doc_len_max = 64;
  int64_t cat_rows = 1000000;   // Cat rows
  int64_t log_rows = 100000;    // Log rows loaded before serving
  int64_t log_domain = 10000;   // Log.v is uniform in [0, log_domain)
};

constexpr int64_t kYearLibLo = 1950, kYearLibHi = 2024;
constexpr int64_t kYearCatLo = 1900, kYearCatHi = 2024;
constexpr int64_t kRatingCatHi = 1000;
constexpr int64_t kAppendBatch = 64;  // rows per APPEND

/// The generated inputs: exactly what the serving process receives.
struct Inputs {
  DataSizes sizes;
  // Lib, document-major: doc d owns entries [doc_begin[d], doc_begin[d+1])
  // of (term id, tf); a term id t is spelled TermName(t).
  std::vector<int64_t> lib_year, lib_rating;
  std::vector<uint32_t> doc_begin;
  std::vector<uint32_t> entry_term;
  std::vector<uint32_t> entry_tf;
  // Cat.
  std::vector<int64_t> cat_year, cat_rating, cat_ref;
  // Log.
  std::vector<int64_t> log_v;
};

std::string TermName(int64_t term);

Inputs GenerateInputs(uint64_t seed, const DataSizes& sizes);
bool WriteInputs(const Inputs& in, const std::string& path);
bool ReadInputs(const std::string& path, Inputs* in);

enum class Kind : uint8_t {
  kRank10,      // top-10 getBL ranking over all of Lib
  kRank10Year,  // top-10 ranking over a year-range select of Lib
  kRankFull,    // the full ranking, every document scored
  kCatSum,      // sum of ratings over a year range of Cat
  kRefCount,    // count of a ref range of Cat
  kRefPoint,    // ratings of the Cat rows with one ref
  kBrowse,      // top-10 rated Cat rows of one year
  kLogCount,    // count of a value range of Log
  kLogTotal,    // count of all of Log (the restart probe)
};
constexpr int kNumKinds = 9;
const char* KindName(Kind k);

/// One QUERY: its Moa text, its term binding (rankings) and literals.
struct Request {
  Kind kind = Kind::kCatSum;
  std::vector<std::string> terms;  // bound as `query`
  std::vector<int64_t> term_ids;
  int64_t a = 0, b = 0;
  std::string text;
  int pool_index = -1;  // position in the hot pool, -1 = fresh request
};

/// Fresh requests of the library_search mix; `i` is the request index in
/// its stream, so any thread produces the same request for the same i.
Request SearchRequest(uint64_t seed, uint64_t stream, uint64_t i,
                      const DataSizes& sizes);
/// The hot pool of hot_browse and ingest_mix: `n` distinct small-result
/// requests over the Lib and Cat sets.
std::vector<Request> HotPool(uint64_t seed, size_t n, const DataSizes& sizes);
/// Zipf(1.1) pick into a pool of `n`, deterministic in (seed, stream, i).
size_t PoolPick(uint64_t seed, uint64_t stream, uint64_t i, size_t n);
/// A fresh Log range count (ingest_mix readers).
Request LogCountRequest(uint64_t seed, uint64_t stream, uint64_t i,
                        const DataSizes& sizes);
Request LogTotalRequest();
/// Values of APPEND batch `j` of writer `w`.
std::vector<int64_t> AppendBatch(uint64_t seed, int w, uint64_t j,
                                 const DataSizes& sizes);
/// Deterministic per-(seed, stream, i) generator seed.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t i);

/// A decoded reply, reduced to what the checker needs.
struct Reply {
  bool is_scalar = false;
  double scalar = 0;
  std::vector<std::pair<uint64_t, double>> rows;  // (oid, value) in order
};
Reply ReduceReply(bool is_scalar, double scalar, const mirror::monet::Bat* bat);

/// What a Log count may read: rows acked before the query was sent, and
/// rows sent before its reply arrived, per writer, in batches.
struct LogWindow {
  std::vector<uint64_t> acked_before;  // batches, per writer
  std::vector<uint64_t> sent_before;
};

/// Reference answers computed from the inputs by the benchmark's own
/// arithmetic (InQuery belief, per-year sums, sorted columns).
class Reference {
 public:
  Reference(const Inputs& in, uint64_t seed);

  /// Empty when `reply` answers `req` correctly, else why not.
  std::string Check(const Request& req, const Reply& reply,
                    const LogWindow* window) const;

  /// Correct scores of every document for `req`'s terms (restricted
  /// rankings score only the documents in the year range; others NaN).
  std::vector<double> Scores(const Request& req) const;
  /// The correct reply: what exact answers are compared to, and what the
  /// checker self-test perturbs.
  Reply Expected(const Request& req) const;
  /// Log rows in [a, b]: loaded ones plus those of the first `batches[w]`
  /// batches of each writer w.
  int64_t LogInRange(int64_t a, int64_t b,
                     const std::vector<uint64_t>& batches) const;

 private:
  const Inputs& in_;
  uint64_t seed_;
  int64_t num_docs_;
  double avg_doclen_;
  std::vector<int64_t> doclen_;
  std::vector<int64_t> df_;
  // Postings by term: (doc, tf), ascending doc.
  std::vector<uint32_t> post_begin_;
  std::vector<std::pair<uint32_t, uint32_t>> postings_;
  // Cat: per-year rating sums; refs sorted; (ref, oid) sorted.
  std::vector<int64_t> year_sum_;
  std::vector<int64_t> sorted_ref_;
  std::vector<std::pair<int64_t, uint64_t>> ref_oid_;
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> by_year_;  // browse
  std::vector<int64_t> sorted_log_;
  mutable std::vector<std::vector<std::vector<int64_t>>> batch_cache_;
};

/// Checks that the checker accepts correct replies and rejects one score
/// perturbed by 1e-6, one row missing and one ranking out of order.
/// Returns an empty string on success.
std::string CheckerSelfTest();

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
