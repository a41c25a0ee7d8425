/**
 * @file
 * Test helper: a scratch directory private to one test process.
 *
 * CTest runs every discovered gtest case as its own process, and
 * `ctest -j` runs several at once, so a fixed directory name shared
 * by two cases lets one `remove_all` the other's files mid-test.
 * ScratchDir names its directory from the running test's name, a
 * caller-chosen tag and the process id, which no other live process
 * can share.
 */

#ifndef LAG_TESTS_SCRATCH_DIR_HH
#define LAG_TESTS_SCRATCH_DIR_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace lag::test
{

/** Created empty on construction, removed on destruction. */
struct ScratchDir
{
    /** `lagalyzer-test-<Suite.Case>-<tag>-<pid>`, relative to the
     * working directory (the test binary's build directory). */
    const std::string path;

    explicit ScratchDir(const std::string &tag) : path(uniqueName(tag))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir() { std::filesystem::remove_all(path); }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

  private:
    static std::string
    uniqueName(const std::string &tag)
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string test = "no-test";
        if (info != nullptr) {
            test = std::string(info->test_suite_name()) + "." +
                   info->name();
            // Parameterized names carry '/'; keep one path segment.
            for (char &c : test) {
                if (c == '/')
                    c = '_';
            }
        }
        return "lagalyzer-test-" + test + "-" + tag + "-" +
               std::to_string(::getpid());
    }
};

} // namespace lag::test

#endif // LAG_TESTS_SCRATCH_DIR_HH
