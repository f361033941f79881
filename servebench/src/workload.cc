#include "workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "base/rng.h"
#include "base/str_util.h"

namespace servebench {

namespace base = mirror::base;

namespace {

constexpr double kAlpha = 0.4, kTf = 0.5, kLen = 1.5;  // InQuery defaults
constexpr double kTol = 1e-9;                         // relative
// Mid-frequency terms: Zipf ranks in [50, 300) occur in roughly 1% to 7%
// of the documents.
constexpr int64_t kMidLo = 50, kMidHi = 300;

const char* kRankText =
    "map[sum(THIS)](map[getBL(THIS.doc, query, stats)](%s))";

std::string Ranking(const std::string& source, bool top10) {
  std::string r = base::StrFormat(kRankText, source.c_str());
  return top10 ? "topN(" + r + ", 10);" : r + ";";
}

void DrawTerms(base::Rng* rng, int lo, int hi, Request* r) {
  int n = static_cast<int>(rng->UniformInt(lo, hi));
  while (static_cast<int>(r->term_ids.size()) < n) {
    int64_t t = rng->UniformInt(kMidLo, kMidHi - 1);
    if (std::find(r->term_ids.begin(), r->term_ids.end(), t) !=
        r->term_ids.end()) {
      continue;
    }
    r->term_ids.push_back(t);
    r->terms.push_back(TermName(t));
  }
}

// `hot` gives pool requests narrow ranges of one fixed width each, so that
// the pool's results and candidate lists fit the recycler's default budget
// together and a pool entry costs about the same under every seed.
Request Make(Kind kind, base::Rng* rng, const DataSizes& sizes,
             bool hot = false) {
  Request r;
  r.kind = kind;
  switch (kind) {
    case Kind::kRank10:
      DrawTerms(rng, 2, 6, &r);
      r.text = Ranking("Lib", true);
      break;
    case Kind::kRank10Year: {
      DrawTerms(rng, 2, 6, &r);
      int64_t width = hot ? 4 : rng->UniformInt(10, 30);
      r.a = rng->UniformInt(kYearLibLo, kYearLibHi - width);
      r.b = r.a + width - 1;
      r.text = Ranking(base::StrFormat("select[THIS.year >= %lld and "
                                       "THIS.year <= %lld](Lib)",
                                       static_cast<long long>(r.a),
                                       static_cast<long long>(r.b)),
                       true);
      break;
    }
    case Kind::kRankFull:
      DrawTerms(rng, 2, 4, &r);
      r.text = Ranking("Lib", false);
      break;
    case Kind::kCatSum: {
      int64_t width = hot ? 3 : rng->UniformInt(1, 40);
      r.a = rng->UniformInt(kYearCatLo, kYearCatHi - width + 1);
      r.b = r.a + width - 1;
      r.text = base::StrFormat(
          "sum(map[THIS.rating](select[THIS.year >= %lld and THIS.year <= "
          "%lld](Cat)));",
          static_cast<long long>(r.a), static_cast<long long>(r.b));
      break;
    }
    case Kind::kRefCount: {
      int64_t width = hot ? 1000 : rng->UniformInt(100, 10000);
      r.a = rng->UniformInt(0, sizes.cat_rows - width);
      r.b = r.a + width - 1;
      r.text = base::StrFormat(
          "count(select[THIS.ref >= %lld and THIS.ref <= %lld](Cat));",
          static_cast<long long>(r.a), static_cast<long long>(r.b));
      break;
    }
    case Kind::kRefPoint:
      r.a = rng->UniformInt(0, sizes.cat_rows - 1);
      r.text = base::StrFormat("map[THIS.rating](select[THIS.ref == %lld](Cat));",
                               static_cast<long long>(r.a));
      break;
    case Kind::kBrowse:
      r.a = rng->UniformInt(kYearCatLo, kYearCatHi);
      r.text = base::StrFormat(
          "topN(map[THIS.rating](select[THIS.year == %lld](Cat)), 10);",
          static_cast<long long>(r.a));
      break;
    case Kind::kLogCount: {
      int64_t width = rng->UniformInt(10, sizes.log_domain / 4);
      r.a = rng->UniformInt(0, sizes.log_domain - width);
      r.b = r.a + width - 1;
      r.text = base::StrFormat(
          "count(select[THIS.v >= %lld and THIS.v <= %lld](Log));",
          static_cast<long long>(r.a), static_cast<long long>(r.b));
      break;
    }
    case Kind::kLogTotal:
      r.text = "count(Log);";
      break;
  }
  return r;
}

bool Close(double got, double want) {
  return std::fabs(got - want) <= kTol * std::max(1.0, std::fabs(want));
}

/// Descending by value, ties toward the smaller oid.
void SortRanking(std::vector<std::pair<uint64_t, double>>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [](const auto& x, const auto& y) {
                     return x.second > y.second;
                   });
}

/// Checks a top-k reply against the complete correct map `want` (oid ->
/// value, NaN = out of scope). `exact` compares values bit for bit.
std::string CheckTopK(const Reply& reply, const std::vector<double>& want,
                      size_t k, bool exact) {
  if (reply.is_scalar) return "expected a table, got a scalar";
  std::vector<std::pair<uint64_t, double>> ref;
  for (size_t d = 0; d < want.size(); ++d) {
    if (!std::isnan(want[d])) ref.emplace_back(d, want[d]);
  }
  size_t n = std::min(k, ref.size());
  std::partial_sort(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n),
                    ref.end(), [](const auto& x, const auto& y) {
                      return x.second != y.second ? x.second > y.second
                                                  : x.first < y.first;
                    });
  if (reply.rows.size() != n) {
    return base::StrFormat("%zu rows, want %zu", reply.rows.size(), n);
  }
  std::vector<uint64_t> seen;
  for (size_t i = 0; i < n; ++i) {
    auto [oid, v] = reply.rows[i];
    if (oid >= want.size() || std::isnan(want[oid])) {
      return base::StrFormat("row %zu: oid %llu out of scope", i,
                             static_cast<unsigned long long>(oid));
    }
    bool ok = exact ? v == want[oid] : Close(v, want[oid]);
    if (!ok) {
      return base::StrFormat("row %zu: oid %llu value %.17g, want %.17g", i,
                             static_cast<unsigned long long>(oid), v,
                             want[oid]);
    }
    bool rank_ok = exact ? v == ref[i].second : Close(v, ref[i].second);
    if (!rank_ok) {
      return base::StrFormat("rank %zu: value %.17g, want %.17g", i, v,
                             ref[i].second);
    }
    if (i > 0 && v > reply.rows[i - 1].second) {
      return base::StrFormat("rank %zu out of order", i);
    }
    seen.push_back(oid);
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "duplicate oid";
  }
  return "";
}

}  // namespace

std::string TermName(int64_t term) { return "w" + std::to_string(term); }

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRank10: return "rank10";
    case Kind::kRank10Year: return "rank10_year";
    case Kind::kRankFull: return "rank_full";
    case Kind::kCatSum: return "cat_sum";
    case Kind::kRefCount: return "ref_count";
    case Kind::kRefPoint: return "ref_point";
    case Kind::kBrowse: return "browse";
    case Kind::kLogCount: return "log_count";
    case Kind::kLogTotal: return "log_total";
  }
  return "?";
}

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull;
  z ^= (i + 1) * 0x94D049BB133111EBull;
  z = (z ^ (z >> 31)) * 0xD6E8FEB86659FD93ull;
  return z ^ (z >> 29);
}

Inputs GenerateInputs(uint64_t seed, const DataSizes& sizes) {
  Inputs in;
  in.sizes = sizes;
  base::Rng rng(Mix(seed, 1000, 0));
  const auto docs = static_cast<size_t>(sizes.docs);
  in.lib_year.resize(docs);
  in.lib_rating.resize(docs);
  in.doc_begin.reserve(docs + 1);
  in.doc_begin.push_back(0);
  std::vector<uint32_t> tokens;
  for (size_t d = 0; d < docs; ++d) {
    in.lib_year[d] = rng.UniformInt(kYearLibLo, kYearLibHi);
    in.lib_rating[d] = rng.UniformInt(0, 100);
    int64_t len = rng.UniformInt(sizes.doc_len_min, sizes.doc_len_max);
    tokens.clear();
    for (int64_t t = 0; t < len; ++t) {
      tokens.push_back(static_cast<uint32_t>(
          rng.Zipf(static_cast<uint64_t>(sizes.vocab), 1.0)));
    }
    std::sort(tokens.begin(), tokens.end());
    for (size_t i = 0; i < tokens.size();) {
      size_t j = i;
      while (j < tokens.size() && tokens[j] == tokens[i]) ++j;
      in.entry_term.push_back(tokens[i]);
      in.entry_tf.push_back(static_cast<uint32_t>(j - i));
      i = j;
    }
    in.doc_begin.push_back(static_cast<uint32_t>(in.entry_term.size()));
  }
  const auto rows = static_cast<size_t>(sizes.cat_rows);
  in.cat_year.resize(rows);
  in.cat_rating.resize(rows);
  in.cat_ref.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    in.cat_year[i] = rng.UniformInt(kYearCatLo, kYearCatHi);
    in.cat_rating[i] = rng.UniformInt(0, kRatingCatHi);
    in.cat_ref[i] = rng.UniformInt(0, sizes.cat_rows - 1);
  }
  in.log_v.resize(static_cast<size_t>(sizes.log_rows));
  for (auto& v : in.log_v) v = rng.UniformInt(0, sizes.log_domain - 1);
  return in;
}

namespace {

template <typename T>
void Put(std::ofstream& out, const std::vector<T>& v) {
  uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
bool Get(std::ifstream& in, std::vector<T>* v) {
  uint64_t n = 0;
  if (!in.read(reinterpret_cast<char*>(&n), sizeof(n))) return false;
  if (n > (uint64_t{1} << 32)) return false;
  v->resize(n);
  return static_cast<bool>(in.read(reinterpret_cast<char*>(v->data()),
                                   static_cast<std::streamsize>(n * sizeof(T))));
}

}  // namespace

bool WriteInputs(const Inputs& in, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&in.sizes), sizeof(in.sizes));
  Put(out, in.lib_year);
  Put(out, in.lib_rating);
  Put(out, in.doc_begin);
  Put(out, in.entry_term);
  Put(out, in.entry_tf);
  Put(out, in.cat_year);
  Put(out, in.cat_rating);
  Put(out, in.cat_ref);
  Put(out, in.log_v);
  out.close();
  return out.good();
}

bool ReadInputs(const std::string& path, Inputs* in) {
  std::ifstream f(path, std::ios::binary);
  if (!f.read(reinterpret_cast<char*>(&in->sizes), sizeof(in->sizes))) {
    return false;
  }
  return Get(f, &in->lib_year) && Get(f, &in->lib_rating) &&
         Get(f, &in->doc_begin) && Get(f, &in->entry_term) &&
         Get(f, &in->entry_tf) && Get(f, &in->cat_year) &&
         Get(f, &in->cat_rating) && Get(f, &in->cat_ref) &&
         Get(f, &in->log_v);
}

Request SearchRequest(uint64_t seed, uint64_t stream, uint64_t i,
                      const DataSizes& sizes) {
  // Whole rounds of a fixed mix, shuffled per round, so every run offers
  // the same shares of each kind of request.
  static const std::vector<std::pair<Kind, int>> kMix = {
      {Kind::kRank10, 14},  {Kind::kRank10Year, 8}, {Kind::kRankFull, 1},
      {Kind::kCatSum, 8},   {Kind::kRefCount, 5},   {Kind::kRefPoint, 4}};
  std::vector<Kind> round;
  for (const auto& [kind, n] : kMix) round.insert(round.end(), n, kind);
  const uint64_t r = i / round.size();
  base::Rng shuffle(Mix(seed, stream + 100, r));
  shuffle.Shuffle(&round);
  base::Rng rng(Mix(seed, stream, i));
  return Make(round[i % round.size()], &rng, sizes);
}

std::vector<Request> HotPool(uint64_t seed, size_t n, const DataSizes& sizes) {
  // The kind of each popularity rank follows a fixed cycle, so every seed
  // offers the same mix at every rank; only terms and literals vary.
  static const Kind kLibraryCycle[] = {
      Kind::kRank10,  Kind::kCatSum,     Kind::kBrowse,   Kind::kRank10,
      Kind::kRefCount, Kind::kRank10Year, Kind::kCatSum,  Kind::kBrowse,
      Kind::kRank10,  Kind::kRefPoint};
  static const Kind kCatalogueCycle[] = {Kind::kCatSum, Kind::kBrowse,
                                         Kind::kRefCount, Kind::kRefPoint};
  std::vector<Request> pool;
  std::vector<std::string> keys;
  base::Rng rng(Mix(seed, 2000, 0));
  while (pool.size() < n) {
    const size_t k = pool.size();
    Kind kind = sizes.docs > 0 ? kLibraryCycle[k % std::size(kLibraryCycle)]
                               : kCatalogueCycle[k % std::size(kCatalogueCycle)];
    Request r = Make(kind, &rng, sizes, /*hot=*/true);
    std::string key = r.text;
    for (const auto& t : r.terms) key += " " + t;
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(key);
    r.pool_index = static_cast<int>(k);
    pool.push_back(std::move(r));
  }
  return pool;
}

size_t PoolPick(uint64_t seed, uint64_t stream, uint64_t i, size_t n) {
  // One shared CDF per pool size: Rng::Zipf caches it per generator, so
  // draw a uniform here and search a static table instead.
  thread_local std::vector<double> cdf;
  if (cdf.size() != n) {
    cdf.resize(n);
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
      cdf[k] = sum;
    }
    for (auto& c : cdf) c /= sum;
  }
  base::Rng rng(Mix(seed, stream, i));
  double u = rng.UniformDouble();
  size_t k = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin());
  return std::min(k, n - 1);
}

Request LogCountRequest(uint64_t seed, uint64_t stream, uint64_t i,
                        const DataSizes& sizes) {
  base::Rng rng(Mix(seed, stream, i));
  return Make(Kind::kLogCount, &rng, sizes);
}

Request LogTotalRequest() {
  base::Rng rng(1);
  return Make(Kind::kLogTotal, &rng, DataSizes());
}

std::vector<int64_t> AppendBatch(uint64_t seed, int w, uint64_t j,
                                 const DataSizes& sizes) {
  base::Rng rng(Mix(seed, 3000 + static_cast<uint64_t>(w), j));
  std::vector<int64_t> v(kAppendBatch);
  for (auto& x : v) x = rng.UniformInt(0, sizes.log_domain - 1);
  return v;
}

Reply ReduceReply(bool is_scalar, double scalar,
                  const mirror::monet::Bat* bat) {
  Reply r;
  r.is_scalar = is_scalar;
  r.scalar = scalar;
  if (!is_scalar && bat != nullptr) {
    r.rows.reserve(bat->size());
    for (size_t i = 0; i < bat->size(); ++i) {
      r.rows.emplace_back(bat->head().OidAt(i), bat->tail().NumAt(i));
    }
  }
  return r;
}

Reference::Reference(const Inputs& in, uint64_t seed)
    : in_(in), seed_(seed), num_docs_(in.sizes.docs) {
  const auto docs = static_cast<size_t>(num_docs_);
  doclen_.assign(docs, 0);
  df_.assign(static_cast<size_t>(in.sizes.vocab), 0);
  int64_t total = 0;
  for (size_t d = 0; d < docs; ++d) {
    for (uint32_t e = in.doc_begin[d]; e < in.doc_begin[d + 1]; ++e) {
      doclen_[d] += in.entry_tf[e];
      df_[in.entry_term[e]] += 1;
    }
    total += doclen_[d];
  }
  avg_doclen_ = num_docs_ == 0 ? 0.0
                              : static_cast<double>(total) /
                                    static_cast<double>(num_docs_);
  post_begin_.assign(df_.size() + 1, 0);
  for (size_t t = 0; t < df_.size(); ++t) {
    post_begin_[t + 1] = post_begin_[t] + static_cast<uint32_t>(df_[t]);
  }
  postings_.resize(in.entry_term.size());
  std::vector<uint32_t> fill(post_begin_.begin(), post_begin_.end() - 1);
  for (size_t d = 0; d < docs; ++d) {
    for (uint32_t e = in.doc_begin[d]; e < in.doc_begin[d + 1]; ++e) {
      postings_[fill[in.entry_term[e]]++] = {static_cast<uint32_t>(d),
                                             in.entry_tf[e]};
    }
  }
  const auto years = static_cast<size_t>(kYearCatHi - kYearCatLo + 1);
  year_sum_.assign(years, 0);
  by_year_.resize(years);
  for (size_t i = 0; i < in.cat_year.size(); ++i) {
    auto y = static_cast<size_t>(in.cat_year[i] - kYearCatLo);
    year_sum_[y] += in.cat_rating[i];
    by_year_[y].emplace_back(in.cat_rating[i], i);
  }
  sorted_ref_ = in.cat_ref;
  std::sort(sorted_ref_.begin(), sorted_ref_.end());
  ref_oid_.reserve(in.cat_ref.size());
  for (size_t i = 0; i < in.cat_ref.size(); ++i) {
    ref_oid_.emplace_back(in.cat_ref[i], i);
  }
  std::sort(ref_oid_.begin(), ref_oid_.end());
  sorted_log_ = in.log_v;
  std::sort(sorted_log_.begin(), sorted_log_.end());
}

std::vector<double> Reference::Scores(const Request& req) const {
  const auto docs = static_cast<size_t>(num_docs_);
  const double n_terms = static_cast<double>(req.term_ids.size());
  std::vector<double> s(docs, kAlpha * n_terms);
  const double idf_den = std::log(static_cast<double>(num_docs_) + 1.0);
  for (int64_t t : req.term_ids) {
    if (t >= static_cast<int64_t>(df_.size())) continue;
    const auto tu = static_cast<size_t>(t);
    double df = static_cast<double>(df_[tu]);
    double i_norm =
        std::log((static_cast<double>(num_docs_) + 0.5) / std::max(df, 1.0)) /
        idf_den;
    i_norm = std::clamp(i_norm, 0.0, 1.0);
    for (uint32_t p = post_begin_[tu]; p < post_begin_[tu + 1]; ++p) {
      auto [d, tf] = postings_[p];
      double f = tf;
      double t_norm = f / (f + kTf + kLen * static_cast<double>(doclen_[d]) /
                                         avg_doclen_);
      s[d] += (1.0 - kAlpha) * t_norm * i_norm;
    }
  }
  if (req.kind == Kind::kRank10Year) {
    for (size_t d = 0; d < docs; ++d) {
      if (in_.lib_year[d] < req.a || in_.lib_year[d] > req.b) {
        s[d] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return s;
}

int64_t Reference::LogInRange(int64_t a, int64_t b,
                              const std::vector<uint64_t>& batches) const {
  int64_t n = std::upper_bound(sorted_log_.begin(), sorted_log_.end(), b) -
              std::lower_bound(sorted_log_.begin(), sorted_log_.end(), a);
  if (batch_cache_.size() < batches.size()) batch_cache_.resize(batches.size());
  for (size_t w = 0; w < batches.size(); ++w) {
    auto& cache = batch_cache_[w];
    while (cache.size() < batches[w]) {
      cache.push_back(AppendBatch(seed_, static_cast<int>(w), cache.size(),
                                  in_.sizes));
    }
    for (uint64_t j = 0; j < batches[w]; ++j) {
      for (int64_t v : cache[j]) n += (v >= a && v <= b) ? 1 : 0;
    }
  }
  return n;
}

Reply Reference::Expected(const Request& req) const {
  Reply r;
  switch (req.kind) {
    case Kind::kRank10:
    case Kind::kRank10Year:
    case Kind::kRankFull: {
      std::vector<double> s = Scores(req);
      for (size_t d = 0; d < s.size(); ++d) {
        if (!std::isnan(s[d])) r.rows.emplace_back(d, s[d]);
      }
      if (req.kind != Kind::kRankFull) {
        SortRanking(&r.rows);
        r.rows.resize(std::min<size_t>(10, r.rows.size()));
      }
      return r;
    }
    case Kind::kBrowse: {
      auto rows = by_year_[static_cast<size_t>(req.a - kYearCatLo)];
      std::stable_sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
        return x.first > y.first;
      });
      for (size_t i = 0; i < std::min<size_t>(10, rows.size()); ++i) {
        r.rows.emplace_back(rows[i].second, static_cast<double>(rows[i].first));
      }
      return r;
    }
    case Kind::kRefPoint: {
      auto lo = std::lower_bound(ref_oid_.begin(), ref_oid_.end(),
                                 std::make_pair(req.a, uint64_t{0}));
      for (auto it = lo; it != ref_oid_.end() && it->first == req.a; ++it) {
        r.rows.emplace_back(it->second,
                            static_cast<double>(in_.cat_rating[it->second]));
      }
      return r;
    }
    case Kind::kCatSum: {
      r.is_scalar = true;
      for (int64_t y = req.a; y <= req.b; ++y) {
        r.scalar += static_cast<double>(year_sum_[static_cast<size_t>(y - kYearCatLo)]);
      }
      return r;
    }
    case Kind::kRefCount:
      r.is_scalar = true;
      r.scalar = static_cast<double>(
          std::upper_bound(sorted_ref_.begin(), sorted_ref_.end(), req.b) -
          std::lower_bound(sorted_ref_.begin(), sorted_ref_.end(), req.a));
      return r;
    case Kind::kLogCount:
    case Kind::kLogTotal:
      r.is_scalar = true;
      r.scalar = static_cast<double>(in_.log_v.size());
      return r;
  }
  return r;
}

std::string Reference::Check(const Request& req, const Reply& reply,
                             const LogWindow* window) const {
  switch (req.kind) {
    case Kind::kRank10:
    case Kind::kRank10Year:
      return CheckTopK(reply, Scores(req), 10, false);
    case Kind::kRankFull: {
      if (reply.is_scalar) return "expected a table, got a scalar";
      std::vector<double> s = Scores(req);
      if (reply.rows.size() != s.size()) {
        return base::StrFormat("%zu rows, want %zu", reply.rows.size(),
                               s.size());
      }
      std::vector<char> seen(s.size(), 0);
      for (const auto& [oid, v] : reply.rows) {
        if (oid >= s.size() || seen[oid]) return "bad or duplicate oid";
        seen[oid] = 1;
        if (!Close(v, s[oid])) {
          return base::StrFormat("oid %llu score %.17g, want %.17g",
                                 static_cast<unsigned long long>(oid), v,
                                 s[oid]);
        }
      }
      return "";
    }
    case Kind::kBrowse: {
      std::vector<double> want(in_.cat_year.size(),
                               std::numeric_limits<double>::quiet_NaN());
      for (const auto& [rating, oid] :
           by_year_[static_cast<size_t>(req.a - kYearCatLo)]) {
        want[oid] = static_cast<double>(rating);
      }
      return CheckTopK(reply, want, 10, true);
    }
    case Kind::kRefPoint: {
      if (reply.is_scalar) return "expected a table, got a scalar";
      Reply want = Expected(req);
      auto got = reply.rows;
      std::sort(got.begin(), got.end());
      return got == want.rows ? "" : "point select rows differ";
    }
    case Kind::kCatSum:
    case Kind::kRefCount: {
      if (!reply.is_scalar) return "expected a scalar";
      double want = Expected(req).scalar;
      return reply.scalar == want
                 ? ""
                 : base::StrFormat("scalar %.17g, want %.17g", reply.scalar,
                                   want);
    }
    case Kind::kLogCount:
    case Kind::kLogTotal: {
      if (!reply.is_scalar) return "expected a scalar";
      if (window == nullptr) return "log count without a write window";
      int64_t a = req.kind == Kind::kLogTotal ? std::numeric_limits<int64_t>::min() : req.a;
      int64_t b = req.kind == Kind::kLogTotal ? std::numeric_limits<int64_t>::max() : req.b;
      double lo = static_cast<double>(LogInRange(a, b, window->acked_before));
      double hi = static_cast<double>(LogInRange(a, b, window->sent_before));
      if (reply.scalar < lo || reply.scalar > hi) {
        return base::StrFormat("log count %.0f outside [%.0f, %.0f]",
                               reply.scalar, lo, hi);
      }
      return "";
    }
  }
  return "unknown request kind";
}

std::string CheckerSelfTest() {
  DataSizes sizes;
  sizes.docs = 400;
  sizes.vocab = 600;
  sizes.cat_rows = 2000;
  sizes.log_rows = 100;
  Inputs in = GenerateInputs(7, sizes);
  Reference ref(in, 7);
  base::Rng rng(7);
  const Request top = Make(Kind::kRank10, &rng, sizes);
  const Request full = Make(Kind::kRankFull, &rng, sizes);
  const Request sum = Make(Kind::kCatSum, &rng, sizes);
  for (const Request* r : {&top, &full, &sum}) {
    std::string err = ref.Check(*r, ref.Expected(*r), nullptr);
    if (!err.empty()) {
      return std::string("rejected a correct ") + KindName(r->kind) +
             " reply: " + err;
    }
  }
  struct Case {
    const char* what;
    const Request* req;
    Reply reply;
  };
  std::vector<Case> cases;
  for (const Request* r : {&top, &full}) {
    Reply perturbed = ref.Expected(*r);
    perturbed.rows[3].second += 1e-6;
    cases.push_back({"one score perturbed by 1e-6", r, perturbed});
    Reply missing = ref.Expected(*r);
    missing.rows.erase(missing.rows.begin() + 5);
    cases.push_back({"one row missing", r, missing});
  }
  Reply swapped = ref.Expected(top);
  size_t k = 0;
  while (k + 1 < swapped.rows.size() &&
         swapped.rows[k].second == swapped.rows[k + 1].second) {
    ++k;
  }
  if (k + 1 == swapped.rows.size()) return "self-test ranking has no order";
  std::swap(swapped.rows[k], swapped.rows[k + 1]);
  cases.push_back({"one ranking out of order", &top, swapped});
  Reply off_by_one = ref.Expected(sum);
  off_by_one.scalar += 1;
  cases.push_back({"a sum off by one", &sum, off_by_one});
  for (const Case& c : cases) {
    if (ref.Check(*c.req, c.reply, nullptr).empty()) {
      return std::string("accepted a ") + KindName(c.req->kind) +
             " reply with " + c.what;
    }
  }
  return "";
}

}  // namespace servebench
