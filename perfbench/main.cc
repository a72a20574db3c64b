// perfbench_tool: the compiled half of the repository benchmark. run.py
// builds it, calls `gen` to make the cached inputs, and calls the workload
// subcommands; each prints its report as one JSON line on stdout.
//
//   perfbench_tool gen|discover|load|host --flag=value ...

#include <cstdio>
#include <string>

#include "perfbench.h"

int main(int argc, char** argv) {
  using namespace tind::perfbench;
  const tind::Flags flags = tind::Flags::Parse(argc, argv);
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "gen") return RunGen(flags);
  if (command == "discover") return RunDiscover(flags);
  if (command == "load") return RunLoad(flags);
  if (command == "host") return RunHost(flags);
  std::fprintf(stderr, "usage: perfbench_tool gen|discover|load|host ...\n");
  return 2;
}
