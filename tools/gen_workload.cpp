// gen_workload: deterministic HQL scenario generator for a product-taxonomy
// database, used by the incremental-maintenance benchmarks and CI smoke.
//
//   gen_workload [--tuples N] [--depth D] [--fanout F] [--ops M]
//                [--seed S] [--check]
//
// Emits, on stdout:
//   1. a product taxonomy: a class tree of the given depth and fanout with
//      N sku instances attached to random leaves,
//   2. a `stock(item: product)` relation with one ASSERT per sku plus a
//      sprinkling of class-level DENYs (the paper's exception pattern), and
//   3. a mixed trace of M operations — subtree queries, new-sku inserts,
//      truth flips, retractions, and CONSOLIDATEs — the
//      single-tuple-mutation-then-query loop the journal patch path is for.
//
// The taxonomy is a tree, so any two facts on the item attribute are
// comparable or cover disjoint descendants: no generated statement can trip
// the ambiguity guard. Output is a pure function of the flags (seeded
// mt19937_64, no iteration over unordered containers), so CI can diff two
// runs to assert reproducibility.
//
// With --check the generated script is also executed against a fresh
// in-process database; exit 1 if any statement fails.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "hql/executor.h"

namespace {

struct Config {
  size_t tuples = 1000;
  size_t depth = 3;
  size_t fanout = 4;
  size_t ops = 100;
  uint64_t seed = 1;
  bool check = false;
};

int Usage() {
  std::cerr << "usage: gen_workload [--tuples N] [--depth D] [--fanout F]"
               " [--ops M] [--seed S] [--check]\n";
  return 2;
}

bool ParseSize(const char* text, size_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// Uniform pick in [0, n); callers guarantee n > 0.
size_t Pick(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % n);
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](size_t* out) {
      return i + 1 < argc && ParseSize(argv[++i], out);
    };
    if (std::strcmp(argv[i], "--tuples") == 0) {
      if (!value(&config.tuples)) return Usage();
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      if (!value(&config.depth) || config.depth == 0) return Usage();
    } else if (std::strcmp(argv[i], "--fanout") == 0) {
      if (!value(&config.fanout) || config.fanout == 0) return Usage();
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      if (!value(&config.ops)) return Usage();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      size_t seed = 0;
      if (!value(&seed)) return Usage();
      config.seed = seed;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      config.check = true;
    } else {
      return Usage();
    }
  }

  std::mt19937_64 rng(config.seed);
  std::ostringstream out;
  out << "-- gen_workload: tuples=" << config.tuples
      << " depth=" << config.depth << " fanout=" << config.fanout
      << " ops=" << config.ops << " seed=" << config.seed << "\n";
  out << "CREATE HIERARCHY product;\n";

  // Class tree, level order: level 1 hangs off the root, each class gets
  // `fanout` children until `depth` levels exist.
  std::vector<std::string> parents = {""};  // "" = the hierarchy root
  std::vector<std::string> leaves;
  size_t next_class = 0;
  for (size_t level = 0; level < config.depth; ++level) {
    std::vector<std::string> created;
    for (const std::string& parent : parents) {
      for (size_t c = 0; c < config.fanout; ++c) {
        std::string name = "cat" + std::to_string(next_class++);
        out << "CREATE CLASS " << name << " IN product";
        if (!parent.empty()) out << " UNDER " << parent;
        out << ";\n";
        created.push_back(std::move(name));
      }
    }
    parents = std::move(created);
  }
  leaves = parents;

  // Skus on random leaves, one ASSERT each; class-level DENYs on a few
  // random mid/leaf classes make consolidation and preemption non-trivial
  // (a denied subtree with asserted exceptions below it).
  out << "CREATE RELATION stock (item: product);\n";
  std::vector<std::string> skus;
  skus.reserve(config.tuples);
  for (size_t i = 0; i < config.tuples; ++i) {
    std::string sku = "sku" + std::to_string(i);
    out << "CREATE INSTANCE " << sku << " IN product UNDER "
        << leaves[Pick(rng, leaves.size())] << ";\n";
    skus.push_back(std::move(sku));
  }
  // Denied classes are drawn without replacement (a partial Fisher-Yates
  // shuffle of the class ids), so no class is denied twice.
  size_t denials = std::min(config.tuples / 50 + 1, next_class);
  std::vector<size_t> class_ids(next_class);
  std::iota(class_ids.begin(), class_ids.end(), 0);
  for (size_t i = 0; i < denials; ++i) {
    std::swap(class_ids[i], class_ids[i + Pick(rng, next_class - i)]);
    out << "DENY stock(ALL cat" << class_ids[i] << ");\n";
  }
  // Only positive sku facts are tracked as retractable: a positive tuple
  // with no positive predecessor is never redundant, so CONSOLIDATE cannot
  // remove it behind the generator's back (a DENY'd sku under a denied
  // class would be consolidated away, and a later RETRACT would miss).
  std::vector<std::string> live = skus;
  for (const std::string& sku : skus) {
    out << "ASSERT stock(" << sku << ");\n";
  }
  out << "CONSOLIDATE stock;\n";

  // Mixed trace: the mutate-a-little-then-query loop. Weights: 5 query,
  // 2 insert, 1 flip, 1 retract, 1 consolidate.
  size_t next_sku = config.tuples;
  for (size_t i = 0; i < config.ops; ++i) {
    size_t roll = Pick(rng, 10);
    if (roll < 5) {
      out << "SELECT * FROM stock WHERE item = ALL cat"
          << Pick(rng, next_class) << ";\n";
    } else if (roll < 7) {
      std::string sku = "sku" + std::to_string(next_sku++);
      out << "CREATE INSTANCE " << sku << " IN product UNDER "
          << leaves[Pick(rng, leaves.size())] << ";\n";
      out << "ASSERT stock(" << sku << ");\n";
      live.push_back(std::move(sku));
    } else if (roll < 8 && !live.empty()) {
      // Churn: retract and immediately re-assert the same sku. The tuple
      // gets a fresh id, exercising the erase+insert cancellation in the
      // journal patch path.
      const std::string& sku = live[Pick(rng, live.size())];
      out << "RETRACT stock(" << sku << ");\n";
      out << "ASSERT stock(" << sku << ");\n";
    } else if (roll < 9 && !live.empty()) {
      size_t victim = Pick(rng, live.size());
      out << "RETRACT stock(" << live[victim] << ");\n";
      live[victim] = std::move(live.back());
      live.pop_back();
    } else {
      out << "CONSOLIDATE stock;\n";
    }
  }
  out << "COUNT stock;\n";

  std::string script = out.str();
  std::cout << script;

  if (config.check) {
    hirel::hql::Executor exec;
    hirel::Result<std::string> run = exec.Execute(script);
    if (!run.ok()) {
      std::cerr << "gen_workload --check: generated script failed: "
                << run.status() << "\n";
      return 1;
    }
    std::cerr << "gen_workload --check: " << config.tuples << " tuples, "
              << config.ops << " ops executed cleanly\n";
  }
  return 0;
}
