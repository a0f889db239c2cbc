#include "cache/query_cache.h"

#include <cctype>
#include <cstdio>

namespace iqs {
namespace cache {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_literal = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_literal) {
      out.push_back(c);
      if (c == '\'') in_literal = false;
      continue;
    }
    if (c == '\'') {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
      in_literal = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string AnswerKey(const QueryDescription& description, InferenceMode mode,
                      uint64_t rule_epoch, uint64_t database_epoch) {
  // Everything inference reads from the query: the object types in FROM
  // order and each condition's attribute and typed interval. Epochs
  // version everything else (rule base, active domains, data). Fields
  // are length-delimited and values type-tagged, so no string constant
  // can spell another query's conditions, and '3000' is not 3000.
  std::string key = "r" + std::to_string(rule_epoch) + "/d" +
                    std::to_string(database_epoch) + "/" +
                    InferenceModeName(mode) + "/";
  auto field = [&key](const std::string& text) {
    key += std::to_string(text.size()) + ":" + text;
  };
  auto bound = [&](const std::optional<Value>& value, bool open) {
    if (!value.has_value()) {
      key += '*';  // unbounded
      return;
    }
    key += open ? '(' : '[';
    field(ValueTypeName(value->type()));
    field(value->ToString());
  };
  for (const std::string& type : description.object_types) field(type);
  key += '/';
  for (const Clause& condition : description.conditions) {
    field(condition.attribute());
    bound(condition.interval().lo(), condition.interval().lo_open());
    bound(condition.interval().hi(), condition.interval().hi_open());
  }
  return key;
}

std::string QueryCache::StatsText() const {
  auto line = [](const char* name, const CacheCounters& c, size_t size,
                 size_t capacity) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  %-7s size=%zu/%zu hits=%llu misses=%llu inserts=%llu "
                  "evictions=%llu hit_ratio=%.2f\n",
                  name, size, capacity,
                  static_cast<unsigned long long>(c.hits),
                  static_cast<unsigned long long>(c.misses),
                  static_cast<unsigned long long>(c.inserts),
                  static_cast<unsigned long long>(c.evictions),
                  c.hit_ratio());
    return std::string(buf);
  };
  std::string out = "cache: ";
  out += enabled() ? "on" : "off";
  out += "\n";
  out += line("plans", plans_.counters(), plans_.size(), plans_.capacity());
  out += line("answers", answers_.counters(), answers_.size(),
              answers_.capacity());
  return out;
}

}  // namespace cache
}  // namespace iqs
