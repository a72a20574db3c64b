/// tind_snapshot: write, inspect, and verify tIND index snapshots (*.tsnap).
///
///   tind_snapshot write --out=index.tsnap --corpus=corpus.tsv
///   tind_snapshot write --out=index.tsnap --attributes=2000 --days=3000
///   tind_snapshot inspect index.tsnap
///   tind_snapshot verify index.tsnap
///   tind_snapshot --build_info
///
/// `write` builds the index (from a corpus file, or from the synthetic
/// generator when no --corpus is given) and persists it; index shape flags
/// mirror tind_selfcheck (--bloom_bits --slices --eps --delta --hashes
/// --reverse_slices --no_reverse --seed). `inspect` prints the manifest and
/// section table without needing the corpus; `verify` additionally checks
/// every section's CRC-32 and runs the loader's own per-section validators
/// (matrix geometry, slice intervals, caches) — an OK verify means a load
/// will not reject the file for corruption.
///
/// Exit status (StatusExitCode — distinct per rejection type, so scripts
/// and the serving preflight can branch without parsing stderr):
///   0 OK        2 NotFound (missing file)       3 IOError (short read/mmap)
///   4 InvalidArgument/FailedPrecondition (corrupt or incompatible snapshot)
///   5 OutOfMemory   6 ResourceExhausted   7 DeadlineExceeded   1 other.
/// Usage errors (missing subcommand/path) exit 1.

#include <cstdio>
#include <memory>
#include <string>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "snapshot/snapshot.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "wiki/corpus_io.h"
#include "wiki/generator.h"

namespace {

using tind::Dataset;
using tind::Flags;
using tind::Result;
using tind::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return tind::StatusExitCode(status);
}

Result<Dataset> ObtainDataset(const Flags& flags) {
  const std::string corpus = flags.GetString("corpus", "");
  if (!corpus.empty()) {
    TIND_ASSIGN_OR_RETURN(tind::wiki::LoadedDataset loaded,
                          tind::wiki::ReadDatasetFile(corpus));
    std::printf("corpus %s: %zu attributes, %lld days\n", corpus.c_str(),
                loaded.dataset.size(),
                static_cast<long long>(loaded.dataset.domain().num_timestamps()));
    return std::move(loaded.dataset);
  }
  // Synthetic corpus; same shape knobs as the bench harnesses.
  const size_t attributes =
      static_cast<size_t>(flags.GetInt("attributes", 2000));
  tind::wiki::GeneratorOptions opts;
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  opts.num_days = flags.GetInt("days", 3000);
  opts.num_families = std::max<size_t>(2, attributes / 14);
  opts.num_noise_attributes = std::max<size_t>(8, attributes * 45 / 100);
  opts.num_drifter_attributes = std::max<size_t>(4, attributes * 18 / 100);
  opts.shared_vocabulary = std::max<size_t>(150, attributes / 4);
  TIND_ASSIGN_OR_RETURN(tind::wiki::GeneratedDataset generated,
                        tind::wiki::WikiGenerator(opts).GenerateDataset());
  std::printf("generated corpus: %zu attributes, %lld days (seed %llu)\n",
              generated.dataset.size(), static_cast<long long>(opts.num_days),
              static_cast<unsigned long long>(opts.seed));
  return std::move(generated.dataset);
}

int RunWrite(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "write requires --out=<path>\n");
    return 1;
  }
  tind::TindIndexOptions options;
  options.bloom_bits = static_cast<size_t>(
      flags.GetInt("bloom_bits", static_cast<int64_t>(options.bloom_bits)));
  options.num_hashes = static_cast<uint32_t>(
      flags.GetInt("hashes", options.num_hashes));
  options.num_slices = static_cast<size_t>(
      flags.GetInt("slices", static_cast<int64_t>(options.num_slices)));
  options.epsilon = flags.GetDouble("eps", options.epsilon);
  options.delta = flags.GetInt("delta", options.delta);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("index_seed", static_cast<int64_t>(options.seed)));
  options.build_reverse_index = !flags.GetBool("no_reverse", false);
  options.reverse_slices = static_cast<size_t>(flags.GetInt(
      "reverse_slices", static_cast<int64_t>(options.reverse_slices)));
  // With --corpus, ObtainDataset does not read the generator knobs.
  flags.Declare({"attributes", "days", "seed"});
  flags.RejectUnread();

  auto dataset_or = ObtainDataset(flags);
  if (!dataset_or.ok()) return Fail(dataset_or.status());
  const Dataset& dataset = *dataset_or;
  const tind::ConstantWeight weight(dataset.domain().num_timestamps());
  options.weight = &weight;

  tind::Stopwatch build_watch;
  auto index_or = tind::TindIndex::Build(dataset, options);
  if (!index_or.ok()) return Fail(index_or.status());
  const double build_ms = build_watch.ElapsedMillis();

  tind::Stopwatch save_watch;
  const Status saved = (*index_or)->SaveSnapshot(out);
  if (!saved.ok()) return Fail(saved);
  std::printf("built in %.1f ms, wrote %s in %.1f ms (%zu matrix bytes)\n",
              build_ms, out.c_str(), save_watch.ElapsedMillis(),
              (*index_or)->MemoryUsageBytes());
  return 0;
}

/// Snapshot path for inspect/verify: --snapshot=... or the first positional
/// after the subcommand.
std::string SnapshotArg(const Flags& flags) {
  const std::string path = flags.GetString("snapshot", "");
  if (!path.empty()) return path;
  if (flags.positional().size() > 1) return flags.positional()[1];
  return "";
}

int RunInspect(const Flags& flags) {
  const std::string path = SnapshotArg(flags);
  flags.RejectUnread();
  if (path.empty()) {
    std::fprintf(stderr, "inspect requires a snapshot path\n");
    return 1;
  }
  auto info_or = tind::snapshot::ReadSnapshotInfo(path);
  if (!info_or.ok()) return Fail(info_or.status());
  const tind::snapshot::SnapshotInfo& info = *info_or;
  std::printf("snapshot %s\n", path.c_str());
  std::printf("  format v%u, %llu bytes, reverse index: %s\n",
              info.format_version,
              static_cast<unsigned long long>(info.file_size),
              info.has_reverse ? "yes" : "no");
  std::printf("  producer: %s\n", info.producer.c_str());
  std::printf("  corpus: %llu attributes, %lld days (epoch %lld), %llu values"
              " (digest %016llx)\n",
              static_cast<unsigned long long>(info.num_attributes),
              static_cast<long long>(info.num_timestamps),
              static_cast<long long>(info.epoch_day),
              static_cast<unsigned long long>(info.dictionary_size),
              static_cast<unsigned long long>(info.corpus_digest));
  std::printf("  build: m=%zu hashes=%u k=%zu eps=%g delta=%lld seed=%llu"
              " reverse_slices=%zu weight=%s (options hash %016llx)\n",
              info.options.bloom_bits, info.options.num_hashes,
              info.options.num_slices, info.options.epsilon,
              static_cast<long long>(info.options.delta),
              static_cast<unsigned long long>(info.options.seed),
              info.options.reverse_slices, info.weight_description.c_str(),
              static_cast<unsigned long long>(info.options_hash));
  std::printf("  sections (%zu):\n", info.sections.size());
  for (const tind::snapshot::SectionInfo& s : info.sections) {
    std::printf("    %-18s offset=%-10llu size=%-10llu crc=%08x\n",
                s.name.c_str(), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc32);
  }
  return 0;
}

int RunVerify(const Flags& flags) {
  const std::string path = SnapshotArg(flags);
  flags.RejectUnread();
  if (path.empty()) {
    std::fprintf(stderr, "verify requires a snapshot path\n");
    return 1;
  }
  tind::Stopwatch watch;
  const Status status = tind::snapshot::VerifySnapshot(path);
  if (!status.ok()) return Fail(status);
  std::printf("%s: OK (all section CRCs and payloads valid, %.1f ms)\n",
              path.c_str(), watch.ElapsedMillis());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("build_info", false)) {
    std::printf("%s\n", tind::BuildInfoReport().c_str());
    return 0;
  }
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "write") return RunWrite(flags);
  if (command == "inspect") return RunInspect(flags);
  if (command == "verify") return RunVerify(flags);
  std::fprintf(stderr,
               "usage: tind_snapshot write|inspect|verify [flags]\n"
               "       tind_snapshot --build_info\n");
  return 1;
}
