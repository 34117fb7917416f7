/**
 * @file
 * Status and error reporting, following the gem5 panic convention.
 *
 * panic(): an internal simulator invariant was violated (a bug); aborts.
 * warn()/inform(): advisory messages that never stop the simulation.
 * Invalid input (a configuration, benchmark name, kernel or checkpoint)
 * is not reported here: it throws a typed error (ConfigError, DslError,
 * SnapshotError) that the caller maps to a usage error.
 *
 * All helpers are safe to call from concurrent sweep workers: each
 * message is formatted off-lock and written to the sink as one guarded
 * line, so output from parallel jobs never interleaves mid-line.
 */

#ifndef MTDAE_COMMON_LOG_HH
#define MTDAE_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace mtdae {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: an internal invariant was violated. */
#define MTDAE_PANIC(...) \
    ::mtdae::detail::panicImpl(__FILE__, __LINE__, \
                               ::mtdae::detail::concat(__VA_ARGS__))

/** Assert an invariant; panics with the stringified condition on failure. */
#define MTDAE_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::mtdae::detail::panicImpl(__FILE__, __LINE__, \
                ::mtdae::detail::concat("assertion failed: " #cond " ", \
                                        ##__VA_ARGS__)); \
        } \
    } while (0)

/** Print a warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace mtdae

#endif // MTDAE_COMMON_LOG_HH
