#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/wire.h"
#include "wiki/corpus_io.h"

namespace tind::perfbench {

TindIndexOptions DefaultIndexOptions(const WeightFunction* weight) {
  TindIndexOptions options;  // m = 4096, k = 16, ε = 3, δ = 7.
  options.weight = weight;
  return options;
}

Dataset ReadCorpusOrDie(const std::string& path) {
  auto loaded = wiki::ReadDatasetFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: read %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(loaded->dataset);
}

Result<std::vector<RevisionDelta>> ReadDeltaFile(
    const std::string& path, std::vector<std::string>* payloads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("open " + path);
  std::vector<RevisionDelta> deltas;
  uint32_t size = 0;
  while (in.read(reinterpret_cast<char*>(&size), sizeof(size))) {
    if (size > serve::kMaxPayloadBytes) {
      return Status::InvalidArgument("oversized delta in " + path);
    }
    std::string payload(size, '\0');
    if (!in.read(payload.data(), size)) {
      return Status::IOError("truncated delta file " + path);
    }
    TIND_ASSIGN_OR_RETURN(RevisionDelta delta,
                          serve::DecodeApplyDeltaRequest(payload));
    deltas.push_back(std::move(delta));
    if (payloads != nullptr) payloads->push_back(std::move(payload));
  }
  return deltas;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal guest guest_nice
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/stat")
                            : "/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the line.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, Micros(Clock::now()), -1, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t span) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end_us = Micros(Clock::now());
}

int64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                     Clock::time_point end, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, Micros(start), Micros(end), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::ToJsonLine() const {
  auto json = obs::JsonValue::Object();
  json.Set("correct", correct);
  json.Set("attempted", attempted);
  json.Set("failed", failed);
  auto m = obs::JsonValue::Object();
  for (const auto& [name, value] : metrics) m.Set(name, value);
  json.Set("metrics", std::move(m));
  auto e = obs::JsonValue::Array();
  for (const std::string& err : errors) e.Append(err);
  json.Set("errors", std::move(e));
  return json.Dump();
}

void FunnelTotals::Add(const QueryStats& s) {
  ++queries;
  probe_ms += s.probe_ms;
  slices_ms += s.slices_ms;
  recheck_ms += s.recheck_ms;
  validate_ms += s.validate_ms;
  initial += s.initial_candidates;
  after_slices += s.after_slices;
  validations += s.validations;
  results += s.num_results;
}

void FunnelTotals::Export(Report* report) const {
  const double q = std::max<double>(1, static_cast<double>(queries));
  auto& m = report->metrics;
  m["bloom.probe_ms_per_q"] = probe_ms / q;
  m["bloom.candidates_per_q"] = static_cast<double>(initial) / q;
  m["tind.slices_ms_per_q"] = slices_ms / q;
  m["tind.recheck_ms_per_q"] = recheck_ms / q;
  m["tind.validate_ms_per_q"] = validate_ms / q;
  m["tind.after_slices_per_q"] = static_cast<double>(after_slices) / q;
  m["tind.validations_per_q"] = static_cast<double>(validations) / q;
  m["tind.results_per_validation"] =
      validations == 0 ? 0
                       : static_cast<double>(results) /
                             static_cast<double>(validations);
}

void ResetRegistry(bool enabled) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.set_enabled(enabled);
}

void ExportRegistryProbeRows(Report* report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const double probes =
      static_cast<double>(registry.GetCounter("bloom/superset_queries")->value() +
                          registry.GetCounter("bloom/subset_queries")->value());
  const double rows = static_cast<double>(
      registry.GetCounter("bloom/superset_rows_probed")->value() +
      registry.GetCounter("bloom/subset_rows_probed")->value());
  report->metrics["bloom.rows_per_probe"] = probes == 0 ? 0 : rows / probes;
}

void ExportRegistryUpdateSplit(Report* report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const double apply = registry.GetHistogram("span/index_update")->Mean();
  const double copy =
      registry.GetHistogram("span/index_update/index_update/dataset_copy")
          ->Mean();
  report->metrics["update.copy_ms"] = copy;
  report->metrics["update.patch_ms"] = apply - copy;
}

}  // namespace tind::perfbench
