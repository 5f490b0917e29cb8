// In-memory span recording for the traced run. Each thread appends to its own
// SpanBuffer; buffers are merged and written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

/// Span names, one per layer boundary the benchmark times from outside.
enum SpanName : uint32_t {
  kSpanTokenize,       ///< text: corpus tokenization (BuildCollection).
  kSpanIndexBuild,     ///< index: InvertedIndex::Build.
  kSpanPass,           ///< core: one replayed search pass (one reference).
  kSpanSignature,      ///< sig: GenerateSignature.
  kSpanCheck,          ///< filter: SelectAndCheckCandidates.
  kSpanNn,             ///< filter: NnFilterCandidates.
  kSpanVerify,         ///< matching: one MaxMatchingVerifier::ScoreDecision.
  kSpanSnapshotBuild,  ///< snapshot: BuildSnapshot.
  kSpanSnapshotSave,   ///< snapshot: SaveSnapshot.
  kSpanSnapshotLoad,   ///< snapshot: LoadSnapshot.
  kSpanIngest,         ///< snapshot: one DeltaShard ingest.
  kSpanRequest,        ///< serve: one frame, scheduled send to decoded reply.
  kSpanEncode,         ///< serve: EncodeFrame.
  kSpanDecode,         ///< serve: FrameDecoder on the reply.
  kSpanDirect,         ///< serve: in-process answer to the same payload.
  kSpanCount,
};

inline const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kSpanCount] = {
      "text.tokenize", "index.build", "core.pass",     "sig.generate",
      "filter.check",  "filter.nn",   "matching.verify", "snapshot.build",
      "snapshot.save", "snapshot.load", "snapshot.ingest", "serve.request",
      "serve.encode",  "serve.decode", "serve.direct"};
  return name < kSpanCount ? kNames[name] : "?";
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. `parent` indices refer to this buffer until Merge.
struct SpanBuffer {
  std::vector<Span> spans;

  int64_t Begin(SpanName name, int64_t parent, uint64_t request) {
    spans.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<int64_t>(spans.size()) - 1;
  }
  void End(int64_t id) { spans[static_cast<size_t>(id)].end_ns = NowNs(); }
  /// Records an already-timed interval.
  int64_t Add(SpanName name, int64_t parent, uint64_t request, int64_t start,
              int64_t end) {
    spans.push_back(Span{name, parent, request, start, end});
    return static_cast<int64_t>(spans.size()) - 1;
  }
};

/// All spans of a run plus the per-name totals derived from them.
class TraceLog {
 public:
  /// Appends `buf`, rebasing its parent indices.
  void Merge(const SpanBuffer& buf) {
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : buf.spans) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Sum of self time (seconds) per span name.
  std::vector<double> SelfSecondsByName() const {
    std::vector<double> out(kSpanCount, 0.0);
    const std::vector<int64_t> self = SelfTimes(spans_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name < kSpanCount) out[spans_[i].name] += self[i] * 1e-9;
    }
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as CSV (name,parent,request,start_ns,end_ns,self_ns),
  /// at most `max_rows` of them. Returns false when the file cannot be
  /// written.
  bool WriteCsv(const std::string& path, size_t max_rows) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<int64_t> self = SelfTimes(spans_);
    std::fprintf(f, "# %zu spans, first %zu written\n", spans_.size(),
                 std::min(max_rows, spans_.size()));
    std::fprintf(f, "name,parent,request,start_ns,end_ns,self_ns\n");
    for (size_t i = 0; i < spans_.size() && i < max_rows; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s,%lld,%llu,%lld,%lld,%lld\n", SpanNameString(s.name),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
