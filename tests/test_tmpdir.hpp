/**
 * @file
 * Hermetic scratch directories for the test suites. Every TempDir is
 * a fresh directory created with mkdtemp under
 * std::filesystem::temp_directory_path(), named "<tag>-XXXXXX", and
 * removed with its contents when the object goes out of scope. No two
 * tests -- in one process or in parallel ctest processes -- ever share
 * a path, so suites stay green under `ctest -j`.
 */

#ifndef AUTH_TESTS_TEST_TMPDIR_HPP
#define AUTH_TESTS_TEST_TMPDIR_HPP

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace authenticache::testutil {

class TempDir
{
  public:
    explicit TempDir(const std::string &tag = "auth")
    {
        const std::string pattern =
            (std::filesystem::temp_directory_path() / (tag + "-XXXXXX"))
                .string();
        std::vector<char> buf(pattern.begin(), pattern.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()) == nullptr)
            throw std::system_error(errno, std::generic_category(),
                                    "mkdtemp " + pattern);
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string str() const { return path.string(); }

    /** Empty the directory, keeping its (unique) name. */
    void
    wipe() const
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    std::filesystem::path path;
};

} // namespace authenticache::testutil

#endif // AUTH_TESTS_TEST_TMPDIR_HPP
