#include "core/stats.h"

#include <iomanip>
#include <sstream>

namespace silkmoth {

void SearchStats::Merge(const SearchStats& other) {
  for (const CounterField& f : kSearchCounters) {
    this->*f.member += other.*f.member;
  }
  for (const SecondsField& f : kSearchSeconds) {
    this->*f.member += other.*f.member;
  }
}

std::string SearchStats::ToString() const {
  // "name:" left-aligned in a 21-column field, then the value.
  std::ostringstream out;
  out << std::left;
  for (const CounterField& f : kSearchCounters) {
    out << std::setw(21) << std::string(f.name) + ":" << this->*f.member
        << "\n";
  }
  for (const SecondsField& f : kSearchSeconds) {
    out << std::setw(21) << std::string(f.name) + ":" << this->*f.member
        << "\n";
  }
  return out.str();
}

std::string SearchStats::ToJson() const {
  // The counters object with the phase timers spliced in before the closing
  // brace — keeps the two emitters from drifting apart field by field.
  std::string json = CountersJson();
  json.pop_back();
  std::ostringstream out;
  out << std::setprecision(17);
  for (const SecondsField& f : kSearchSeconds) {
    out << ",\"" << f.name << "\":" << this->*f.member;
  }
  return json + out.str() + "}";
}

std::string SearchStats::CountersJson() const {
  std::ostringstream out;
  const char* sep = "{";
  for (const CounterField& f : kSearchCounters) {
    out << sep << "\"" << f.name << "\":" << this->*f.member;
    sep = ",";
  }
  out << "}";
  return out.str();
}

void ShardedSearchStats::Reset(size_t num_shards) {
  per_shard.assign(num_shards, SearchStats{});
}

void ShardedSearchStats::Merge(const ShardedSearchStats& other) {
  // Slot-wise sum with zero-extension: no counter is ever silently dropped
  // when the shard counts differ.
  if (other.per_shard.size() > per_shard.size()) {
    per_shard.resize(other.per_shard.size());
  }
  for (size_t s = 0; s < other.per_shard.size(); ++s) {
    per_shard[s].Merge(other.per_shard[s]);
  }
}

SearchStats ShardedSearchStats::Total() const {
  SearchStats total;
  for (const SearchStats& s : per_shard) total.Merge(s);
  return total;
}

std::string ShardedSearchStats::ToString() const {
  std::ostringstream out;
  out << "=== global (all shards merged; references counts per-shard "
         "passes) ===\n"
      << Total().ToString();
  out << "=== per shard ===\n"
      << "shard  refs      cands     verified  results   exact_solves\n";
  for (size_t s = 0; s < per_shard.size(); ++s) {
    const SearchStats& st = per_shard[s];
    out << std::left << std::setw(7) << s << std::setw(10) << st.references
        << std::setw(10) << st.initial_candidates << std::setw(10)
        << st.verifications << std::setw(10) << st.results << st.exact_solves
        << "\n";
  }
  return out.str();
}

}  // namespace silkmoth
