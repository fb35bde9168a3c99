//===- TestTempPath.h - Per-test unique temp file names ---------*- C++ -*-===//
//
// Part of the PST library test suite.
//
// A fixed name under ::testing::TempDir() is shared by every process that
// runs the same test, so two build trees running ctest at once rewrite
// each other's image files; a process that has the old file mapped then
// dies with SIGBUS. Every test temp file goes through uniqueTempPath,
// which puts the running test's name and the process id in front of the
// caller's stem.
//
//===----------------------------------------------------------------------===//

#ifndef PST_TESTS_TESTTEMPPATH_H
#define PST_TESTS_TESTTEMPPATH_H

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace pst {

/// TempDir()/<suite>.<test>.<pid>.<Stem>, with the '/' of parameterized
/// test names replaced so the result stays one path component.
inline std::string uniqueTempPath(const std::string &Stem) {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name =
      T ? std::string(T->test_suite_name()) + "." + T->name() : "no_test";
  for (char &C : Name)
    if (C == '/')
      C = '_';
  return ::testing::TempDir() + Name + "." + std::to_string(::getpid()) +
         "." + Stem;
}

} // namespace pst

#endif // PST_TESTS_TESTTEMPPATH_H
