#include "qre/stats.h"

#include <string_view>

#include "common/strings.h"

namespace fastqre {
namespace {

// One field's value as both renderings print it: the report's name=value
// and the JSON member's value.
std::string FormatStat(double v) { return StringFormat("%.6f", v); }
std::string FormatStat(const RelaxedCounter& v) {
  return StringFormat("%llu", static_cast<unsigned long long>(v.value()));
}
std::string FormatStat(bool v) { return v ? "true" : "false"; }

template <StatMerge kMerge, typename T>
void MergeStat(T* into, const T& from) {
  if constexpr (kMerge == StatMerge::kSum) {
    *into += from;
  } else if constexpr (kMerge == StatMerge::kMax) {
    if (from > *into) *into = from;
  } else {
    *into = *into || from;
  }
}

}  // namespace

std::string QreStats::ToString() const {
  std::string out;
  std::string_view line;  // section of the line being written
  ForEachField(*this, [&](const char* name, std::string_view section,
                          const auto& field) {
    if (section != line) {
      if (!line.empty()) out += '\n';
      out += StringFormat("%-22s", (std::string(section) + ":").c_str());
      line = section;
    }
    out += StringFormat(" %s=%s", name, FormatStat(field).c_str());
  });
  return out + "\n";
}

std::string QreStats::JsonMembers() const {
  std::string out;
  ForEachField(*this, [&out](const char* name, const char*, const auto& field) {
    if (!out.empty()) out += ',';
    out += StringFormat("\"%s\":%s", name, FormatStat(field).c_str());
  });
  return out;
}

void QreStats::Accumulate(const QreStats& other) {
#define FASTQRE_MERGE_STAT(type, name, section, merge) \
  MergeStat<StatMerge::merge>(&this->name, other.name);
  FASTQRE_QRE_STATS(FASTQRE_MERGE_STAT)
#undef FASTQRE_MERGE_STAT
}

}  // namespace fastqre
