#include "perfbench/src/core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "src/ml/scalers.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, const std::string& salt,
                          std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const unsigned char c : salt) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::uint64_t z = seed ^ h ^ (index * 0x9E3779B97F4A7C15ull);
  z += 0x9E3779B97F4A7C15ull;  // SplitMix64 finalizer
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  return coda::quantile(std::move(values), 0.5);
}

Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() <= min_beyond) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = samples.size() - min_beyond;  // 1-based
  tail.defined = true;
  tail.value = samples[rank - 1];
  tail.beyond = min_beyond;
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(samples.size());
  return tail;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (!((first >= 'a' && first <= 'z') || (first >= 'A' && first <= 'Z') ||
        (first >= '0' && first <= '9'))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

CheckResult check_search(const coda::EvaluationReport& report,
                         const coda::EvaluationReport& reference) {
  if (report.results.empty()) return "search returned no candidates";
  for (const auto& r : report.results) {
    if (r.failed) {
      return "candidate failed: " + r.spec + ": " + r.failure_message;
    }
  }
  const auto& best = report.best();
  const auto& want = reference.best();
  if (best.spec != want.spec) {
    return "winner changed: " + best.spec + " (warm-up: " + want.spec + ")";
  }
  if (!same_bits(best.fold_scores, want.fold_scores)) {
    return "winner fold scores differ from the warm-up op: " + best.spec;
  }
  return {};
}

CheckResult check_fleet(const coda::darr::CooperativeReport& report,
                        const std::string& expected_best) {
  if (report.clients.empty()) return "fleet reported no clients";
  if (report.redundant_evaluations != 0) {
    return std::to_string(report.redundant_evaluations) +
           " redundant evaluations";
  }
  const std::string& want = expected_best.empty()
                                ? report.clients[0].report.best().spec
                                : expected_best;
  for (const auto& client : report.clients) {
    const std::string& got = client.report.best().spec;
    if (got != want) {
      return client.name + " elected " + got + " (expected " + want + ")";
    }
  }
  return {};
}

CheckResult check_replicas(const coda::Bytes& home,
                           const std::vector<const coda::Bytes*>& replicas) {
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i] == nullptr || *replicas[i] != home) {
      return "replica " + std::to_string(i) + " differs from the home value";
    }
  }
  return {};
}

void Tally::record(const OpOutcome& outcome) {
  ++attempted_;
  if (!outcome.failure.empty()) fail(outcome.failure);
}

void Tally::record_exception(const std::string& what) {
  ++attempted_;
  fail("op threw: " + what);
}

void Tally::fail(const std::string& what) {
  ++failed_;
  if (first_failure_.empty()) first_failure_ = what;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_line(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<MetricValue>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    if (!valid_metric_name(m.name) || !valid_unit(m.unit) ||
        !std::isfinite(m.value)) {
      throw std::invalid_argument("bad metric '" + m.name + "' (" + m.unit +
                                  ")");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    // Validated names and units need no JSON escaping.
    if (i > 0) out += ", ";
    out += '"';
    out += m.name;
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
