// Scrape-friendly metrics dump.
//
//   build/tools/metrics_dump [--prometheus | --json | --text] [script.hql ...]
//
// Executes the given HQL scripts against a fresh database (script output is
// discarded), then writes the engine's metrics to stdout — by default in
// the Prometheus text exposition format, so the binary can sit behind a
// textfile collector or a cron job without an HTTP endpoint. --json and
// --text print SHOW METRICS JSON / SHOW METRICS (the sys.metrics rows).

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "hql/executor.h"

using namespace hirel;

namespace {

int Usage() {
  std::cerr << "usage: metrics_dump [--prometheus | --json | --text] "
               "[script.hql ...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* show = "SHOW METRICS PROMETHEUS;";
  hql::Executor exec;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) {
      show = "SHOW METRICS PROMETHEUS;";
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      show = "SHOW METRICS JSON;";
      continue;
    }
    if (std::strcmp(argv[i], "--text") == 0) {
      show = "SHOW METRICS;";
      continue;
    }
    if (argv[i][0] == '-') return Usage();
    std::ifstream in(argv[i]);
    if (!in) {
      std::cerr << "cannot open " << argv[i] << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<std::string> out = exec.Execute(buffer.str());
    if (!out.ok()) {
      std::cerr << argv[i] << ": " << out.status() << "\n";
      return 1;
    }
  }

  Result<std::string> metrics = exec.Execute(show);
  if (!metrics.ok()) {
    std::cerr << "metrics dump failed: " << metrics.status() << "\n";
    return 1;
  }
  std::cout << *metrics;
  return 0;
}
