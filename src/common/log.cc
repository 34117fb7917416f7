#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mtdae {
namespace detail {

namespace {

/**
 * Serialises every sink write. The sweep engine's worker threads report
 * through these helpers concurrently; each message is formatted into a
 * single buffer first and emitted under the lock, so lines from
 * different simulation jobs never interleave mid-line.
 */
std::mutex &
sinkMutex()
{
    static std::mutex m;
    return m;
}

void
emit(const char *prefix, const std::string &msg)
{
    const std::string line = std::string(prefix) + msg + "\n";
    const std::lock_guard<std::mutex> lock(sinkMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

void
emit(const char *prefix, const char *file, int line_no,
     const std::string &msg)
{
    emit(prefix, msg + " (" + file + ":" + std::to_string(line_no) + ")");
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit("panic: ", file, line, msg);
    std::abort();
}

void
warnImpl(const std::string &msg)
{
    emit("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    emit("info: ", msg);
}

} // namespace detail
} // namespace mtdae
