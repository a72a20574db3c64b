// `perfbench_tool gen`: writes a workload's inputs into the cache. run.py
// calls it outside every timed region and records a digest of each file, so
// the parent and the changed program measure byte-identical inputs.
//
//   perfbench_tool gen --workload=W --dir=<input dir>
//
// Files: corpus.tsv (bench::ScaledOptions at kCorpusSeed); for serve-8k
// index.tsnap, the snapshot tind_serve loads; deltas.bin, a chain of
// scenario::MutateCorpus deltas, each generated against the result of
// applying the previous ones, stored as length-prefixed kApplyDelta wire
// payloads.

#include <cstdio>
#include <fstream>

#include "bench_util.h"
#include "common/hash.h"
#include "perfbench.h"
#include "scenario/mutate.h"
#include "serve/wire.h"
#include "wiki/corpus_io.h"
#include "wiki/generator.h"

namespace tind::perfbench {
namespace {

int Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench gen: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

/// Writes `count` chained deltas against `base`.
Status WriteDeltas(const Dataset& base, uint64_t seed, size_t count,
                   const std::string& path) {
  std::ofstream out(path + ".tmp", std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("open " + path);
  scenario::MutationSpec spec;
  spec.num_ops = kDeltaOps;
  spec.max_attributes_touched = std::max<size_t>(
      1, static_cast<size_t>(kDeltaTouchShare * static_cast<double>(base.size())));
  std::shared_ptr<Dataset> current;
  for (size_t i = 0; i < count; ++i) {
    const Dataset& prev = current != nullptr ? *current : base;
    const RevisionDelta delta =
        scenario::MutateCorpus(prev, HashCombine(seed, i + 1), spec);
    TIND_ASSIGN_OR_RETURN(DeltaApplication applied,
                          ApplyDeltaToDataset(prev, delta));
    current = std::move(applied.dataset);
    const std::string payload = serve::EncodeApplyDeltaRequest(delta);
    const uint32_t size = static_cast<uint32_t>(payload.size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  }
  out.close();
  if (!out) return Status::IOError("write " + path);
  if (std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + path);
  }
  return Status::OK();
}

}  // namespace

int RunGen(const Flags& flags) {
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  size_t targets = 0;
  size_t num_deltas = 0;
  if (workload == "discover-40k") {
    targets = kDiscoverTargets;
    num_deltas = 28;  // 4 warm-up + 4 per round, up to 6 rounds.
  } else if (workload == "serve-8k") {
    targets = kServeTargets;
    num_deltas = 20;
  } else if (workload == "ingest-8k") {
    targets = kServeTargets;
    num_deltas = 100;  // 4 applies/s for up to 25 s.
  }
  if (targets == 0 || dir.empty()) {
    std::fprintf(stderr, "perfbench gen: bad --workload or --dir\n");
    return 2;
  }
  const std::string corpus = dir + "/corpus.tsv";
  auto generated =
      wiki::WikiGenerator(bench::ScaledOptions(targets, kDays, kCorpusSeed))
          .GenerateDataset();
  if (!generated.ok()) return Die("generate", generated.status());
  Status st = wiki::WriteDatasetFile(generated->dataset, nullptr, corpus);
  if (!st.ok()) return Die("write corpus", st);

  // Everything else is derived from the corpus as tind_serve reads it back,
  // so ids, interning order and the snapshot's corpus digest all agree.
  const Dataset dataset = ReadCorpusOrDie(corpus);
  if (workload == "serve-8k") {
    const ConstantWeight weight(dataset.domain().num_timestamps());
    auto index = TindIndex::Build(dataset, DefaultIndexOptions(&weight));
    if (!index.ok()) return Die("build", index.status());
    st = (*index)->SaveSnapshot(dir + "/index.tsnap");
    if (!st.ok()) return Die("save snapshot", st);
  }
  st = WriteDeltas(dataset, kCorpusSeed, num_deltas, dir + "/deltas.bin");
  return st.ok() ? 0 : Die("write deltas", st);
}

}  // namespace tind::perfbench
