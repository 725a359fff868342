// Schema tests for QreStats: every rendering generated from the field list
// (qre/stats.h) carries every field — the ToString() report, the
// --stats-json members, the wire answer's "stats" object — and Accumulate
// merges each field by its kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "qre/stats.h"
#include "server/json.h"
#include "server/protocol.h"

namespace fastqre {
namespace {

// A field's value as the text renderings print it.
std::string Text(double v) { return std::to_string(v); }  // %f: 6 decimals
std::string Text(const RelaxedCounter& v) { return std::to_string(v.value()); }
std::string Text(bool v) { return v ? "true" : "false"; }

// One field as the tests see it, read straight off the field list. Every
// value below is small, so `value` holds it exactly.
struct Field {
  std::string name;
  StatMerge merge;
  double value;
  std::string text;
};

template <typename T>
Field MakeField(const char* name, StatMerge merge, const T& value) {
  return {name, merge, static_cast<double>(value), Text(value)};
}

std::vector<Field> Fields(const QreStats& s) {
  std::vector<Field> out;
#define FASTQRE_TEST_FIELD(type, name, section, merge) \
  out.push_back(MakeField(#name, StatMerge::merge, s.name));
  FASTQRE_QRE_STATS(FASTQRE_TEST_FIELD)
#undef FASTQRE_TEST_FIELD
  return out;
}

void SetDistinct(double* field, uint64_t v, bool) { *field = v + 0.25; }
void SetDistinct(RelaxedCounter* field, uint64_t v, bool) { *field = v; }
void SetDistinct(bool* field, uint64_t, bool flag) { *field = flag; }

// Every field set to a distinct value counting up from `base`; the flag
// field is set to `flag`.
QreStats DistinctStats(uint64_t base, bool flag) {
  QreStats s;
  uint64_t next = base;
#define FASTQRE_TEST_SET(type, name, section, merge) \
  SetDistinct(&s.name, next++, flag);
  FASTQRE_QRE_STATS(FASTQRE_TEST_SET)
#undef FASTQRE_TEST_SET
  return s;
}

TEST(StatsSchemaTest, ToStringShowsEveryField) {
  const QreStats stats = DistinctStats(1000, true);
  const std::string report = stats.ToString();
  for (const Field& f : Fields(stats)) {
    const std::string cell = " " + f.name + "=" + f.text;
    const size_t at = report.find(cell);
    ASSERT_NE(at, std::string::npos) << cell << " missing from\n" << report;
    const char after = report[at + cell.size()];
    EXPECT_TRUE(after == ' ' || after == '\n') << cell;
  }
}

TEST(StatsSchemaTest, JsonMembersAreExactlyTheFields) {
  const QreStats stats = DistinctStats(1000, true);
  const JsonValue parsed =
      JsonValue::Parse("{" + stats.JsonMembers() + "}").ValueOrDie();
  const std::vector<Field> fields = Fields(stats);
  ASSERT_EQ(parsed.members().size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    const auto& [key, value] = parsed.members()[i];
    EXPECT_EQ(key, fields[i].name);
    const double got = value.is_bool() ? (value.AsBool() ? 1.0 : 0.0)
                                       : value.AsDouble();
    EXPECT_EQ(got, fields[i].value) << key;
  }
}

TEST(StatsSchemaTest, WireAnswerCarriesEveryField) {
  Response resp;
  resp.kind = Response::Kind::kAnswer;
  resp.answer.found = true;
  resp.answer.sql = "SELECT a.x FROM t a";
  resp.answer.stats = DistinctStats(1000, true);
  const std::string payload = SerializeResponse(resp);

  // The frame's "stats" object has one key per field, in list order.
  const JsonValue frame = JsonValue::Parse(payload).ValueOrDie();
  const JsonValue* stats = frame.Get("answer")->Get("stats");
  ASSERT_NE(stats, nullptr);
  const std::vector<Field> fields = Fields(resp.answer.stats);
  ASSERT_EQ(stats->members().size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(stats->members()[i].first, fields[i].name);
  }

  // And every field comes back equal.
  const Response back = ParseResponse(payload).ValueOrDie();
  const std::vector<Field> got = Fields(back.answer.stats);
  ASSERT_EQ(got.size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(got[i].value, fields[i].value) << fields[i].name;
  }
}

TEST(StatsSchemaTest, AccumulateMergesEachFieldByKind) {
  // `b` is larger than `a` in every field, `c` smaller, so a max differs
  // from both a sum and a first-wins copy.
  const QreStats a = DistinctStats(1000, false);
  const QreStats b = DistinctStats(5000, true);
  const QreStats c = DistinctStats(10, false);
  QreStats sum = a;
  sum.Accumulate(b);
  sum.Accumulate(c);
  const std::vector<Field> fa = Fields(a), fb = Fields(b), fc = Fields(c);
  const std::vector<Field> got = Fields(sum);
  ASSERT_EQ(got.size(), fa.size());
  for (size_t i = 0; i < got.size(); ++i) {
    double want = 0;
    switch (got[i].merge) {
      case StatMerge::kSum:
        want = fa[i].value + fb[i].value + fc[i].value;
        break;
      case StatMerge::kMax:
        want = std::max({fa[i].value, fb[i].value, fc[i].value});
        break;
      case StatMerge::kOr:
        want = (fa[i].value != 0 || fb[i].value != 0 || fc[i].value != 0);
        break;
    }
    EXPECT_EQ(got[i].value, want) << got[i].name;
  }
}

}  // namespace
}  // namespace fastqre
