// Test helper for the legacy golden files in tests/data: their source
// script and the EXTENSION rendering they are compared by.

#ifndef HIREL_TESTS_LEGACY_DATA_H_
#define HIREL_TESTS_LEGACY_DATA_H_

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "hql/executor.h"

#ifndef HIREL_SOURCE_DIR
#error "HIREL_SOURCE_DIR must be defined by the build"
#endif

namespace hirel {
namespace legacy_data {

/// Path of a file under tests/data.
inline std::string DataPath(const std::string& name) {
  return std::string(HIREL_SOURCE_DIR) + "/tests/data/" + name;
}

/// The bytes of a file (empty, with a test failure, if it cannot be read).
inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// EXTENSION of both relations of legacy_v2_source.hql, as a fresh
/// executor renders them after running `setup`.
inline std::string Extensions(const std::string& setup) {
  hql::Executor exec;
  Result<std::string> ran = exec.Execute(setup);
  EXPECT_TRUE(ran.ok()) << ran.status();
  std::string out;
  for (const char* relation : {"flies", "lives"}) {
    Result<std::string> ext =
        exec.Execute(std::string("EXTENSION ") + relation + ";");
    EXPECT_TRUE(ext.ok()) << ext.status();
    if (ext.ok()) out += *ext;
  }
  return out;
}

/// Extensions() of the source script the golden files were written from.
inline std::string SourceExtensions() {
  return Extensions(ReadFile(DataPath("legacy_v2_source.hql")));
}

}  // namespace legacy_data
}  // namespace hirel

#endif  // HIREL_TESTS_LEGACY_DATA_H_
