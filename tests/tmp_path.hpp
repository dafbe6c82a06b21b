#pragma once
/// \file tmp_path.hpp
/// \brief Per-process temporary file names for the test suites. Two runs of
/// a suite may overlap (a Release and a sanitizer build tested at once), and
/// fixed names in the shared temp directory would let one run overwrite the
/// other's files. Kept apart from ic_fixtures.hpp, which a benchmark without
/// gtest includes too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace asura::testing {

/// `name` in gtest's temp directory, prefixed with this process's id.
inline std::string tmpPath(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

}  // namespace asura::testing
