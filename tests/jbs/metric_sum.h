// Test-side reader of registry series: tests read shuffle stats the way an
// operator does, from the exposition, instead of through component structs.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "common/metrics.h"

namespace jbs {

/// Sums every series named exactly `name` whose labels include each pair
/// in `filter`, e.g. SumMetric(reg, "jbs_supplier_shed_total") adds the
/// shed counter across reasons and instances. A histogram's totals are the
/// `<name>_count` and `<name>_sum` series.
inline uint64_t SumMetric(const MetricsRegistry& registry,
                          std::string_view name,
                          const MetricLabels& filter = {}) {
  std::istringstream text(registry.DumpText());
  uint64_t sum = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.size() <= name.size() ||
        line.compare(0, name.size(), name) != 0 ||
        (line[name.size()] != '{' && line[name.size()] != ' ')) {
      continue;
    }
    const size_t value_at = line.rfind(' ') + 1;
    const std::string labels = line.substr(0, value_at);
    bool match = true;
    for (const auto& [key, value] : filter) {
      const std::string pair = key + "=\"" + value + "\"";
      match = match && (labels.find("{" + pair) != std::string::npos ||
                        labels.find("," + pair) != std::string::npos);
    }
    if (match) {
      sum += static_cast<uint64_t>(
          std::strtod(line.c_str() + value_at, nullptr));
    }
  }
  return sum;
}

}  // namespace jbs
