/**
 * @file
 * Logging and error-reporting helpers in the gem5 idiom.
 *
 * panic()  -- internal invariant violated; a simulator bug. Aborts.
 * fatal()  -- the user asked for something impossible (bad config,
 *             invalid arguments). Exits with an error code.
 * warn()   -- something is modelled approximately; simulation continues.
 * inform() -- status messages.
 */

#ifndef HPIM_SIM_LOGGING_HH
#define HPIM_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace hpim::sim {

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

/**
 * Global verbosity switch. Messages below the threshold are dropped.
 * Fatal/Panic are never dropped.
 */
void setLogThreshold(LogLevel level);

/** @return the current verbosity threshold. */
LogLevel logThreshold();

/**
 * Emit a log record. Fatal exits(1); Panic aborts.
 *
 * @param level severity
 * @param where "file:line" location string
 * @param message preformatted message body
 */
[[gnu::cold]] void logMessage(LogLevel level, const std::string &where,
                              const std::string &message);

namespace detail {

inline void
formatInto(std::ostringstream &os)
{
    (void)os;
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
formatAll(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

} // namespace hpim::sim

#define HPIM_LOG_SITE_ \
    (std::string(__FILE__) + ":" + std::to_string(__LINE__))

/** Report an unrecoverable internal error (simulator bug) and abort. */
#define panic(...)                                                         \
    do {                                                                   \
        ::hpim::sim::logMessage(::hpim::sim::LogLevel::Panic,              \
            HPIM_LOG_SITE_, ::hpim::sim::detail::formatAll(__VA_ARGS__));  \
        __builtin_unreachable();                                           \
    } while (0)

/** Report an unrecoverable user/config error and exit(1). */
#define fatal(...)                                                         \
    do {                                                                   \
        ::hpim::sim::logMessage(::hpim::sim::LogLevel::Fatal,              \
            HPIM_LOG_SITE_, ::hpim::sim::detail::formatAll(__VA_ARGS__));  \
        __builtin_unreachable();                                           \
    } while (0)

/**
 * Emit a warn()/inform() record, formatting it only when the threshold
 * lets it through: a dropped message costs one threshold load.
 */
#define HPIM_LOG_FILTERED_(level, ...)                                     \
    do {                                                                   \
        if ((level) >= ::hpim::sim::logThreshold()) {                      \
            ::hpim::sim::logMessage((level), HPIM_LOG_SITE_,               \
                ::hpim::sim::detail::formatAll(__VA_ARGS__));              \
        }                                                                  \
    } while (0)

/** Warn about approximate or suspicious behaviour; keep running. */
#define warn(...)                                                          \
    HPIM_LOG_FILTERED_(::hpim::sim::LogLevel::Warn, __VA_ARGS__)

/** Informational status message. */
#define inform(...)                                                        \
    HPIM_LOG_FILTERED_(::hpim::sim::LogLevel::Inform, __VA_ARGS__)

/** panic() unless the given condition holds. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond) {                                                        \
            panic("panic condition '" #cond "': ",                        \
                  ::hpim::sim::detail::formatAll(__VA_ARGS__));            \
        }                                                                  \
    } while (0)

/** fatal() if the given condition holds. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (cond) {                                                        \
            fatal("fatal condition '" #cond "': ",                        \
                  ::hpim::sim::detail::formatAll(__VA_ARGS__));            \
        }                                                                  \
    } while (0)

#endif // HPIM_SIM_LOGGING_HH
