/**
 * @file
 * hpim_serve -- the simulation-as-a-service daemon (docs/SERVING.md).
 *
 * Usage:
 *   hpim_serve --socket PATH [--workers N] [--admission-limit N]
 *              [--max-frame-bytes N] [--io-timeout-ms MS]
 *              [--drain-grace-ms MS] [--max-connections N]
 *              [--sim-cache-max-entries N]
 *              [--trace FILE] [--failpoints SPEC]
 *
 * Listens on a Unix-domain socket for framed JSON requests (ping /
 * stats / simulate) and executes simulations on a worker pool with a
 * shared memo cache. SIGTERM or SIGINT starts a graceful drain: new
 * work is rejected with a typed `shutting_down` error, in-flight
 * requests finish (or are unwound once --drain-grace-ms expires),
 * every response is flushed, and the daemon exits 0.
 *
 * Talk to it with `hpim_cli --connect PATH ...` or serve::Client.
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "harness/failpoint.hh"
#include "harness/sweep.hh"
#include "serve/server.hh"
#include "sim/logging.hh"
#include "sim/memo_cache.hh"

namespace {

const char *const kUsage =
    "usage: hpim_serve --socket PATH [--workers N]\n"
    "  [--admission-limit N] [--max-frame-bytes N]\n"
    "  [--io-timeout-ms MS] [--drain-grace-ms MS]\n"
    "  [--max-connections N] [--sim-cache-max-entries N]\n"
    "  [--trace FILE] [--failpoints SPEC]\n"
    "  --sim-cache-max-entries caps the shared memo cache (oldest\n"
    "  entries evicted first; 0 = unbounded; stats show evictions),\n"
    "  --failpoints arms deterministic host-IO fault injection,\n"
    "  e.g. 'serve.send=every(3):eintr' (docs/RESILIENCE.md)";

hpim::serve::Server *g_server = nullptr;

extern "C" void
onStopSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop();
}

double
parseDouble(const std::string &flag, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()
        || value < 0.0)
        fatal(flag, " expects a non-negative number, got '", text,
              "'\n", kUsage);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    hpim::serve::ServerOptions options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "missing value for ", arg, "\n",
                     kUsage);
            return argv[++i];
        };
        auto nextUnsigned = [&]() -> std::uint64_t {
            std::string text = next();
            std::optional<std::uint64_t> value =
                hpim::harness::parseUnsigned(text);
            if (!value)
                fatal(arg, " expects an unsigned integer, got '", text,
                      "'\n", kUsage);
            return *value;
        };
        if (arg == "--socket") options.socketPath = next();
        else if (arg == "--workers")
            options.workers =
                static_cast<std::uint32_t>(nextUnsigned());
        else if (arg == "--admission-limit")
            options.admissionLimit =
                static_cast<std::size_t>(nextUnsigned());
        else if (arg == "--max-frame-bytes")
            options.maxFrameBytes =
                static_cast<std::size_t>(nextUnsigned());
        else if (arg == "--io-timeout-ms")
            options.ioTimeoutMs = parseDouble(arg, next());
        else if (arg == "--drain-grace-ms")
            options.drainGraceMs = parseDouble(arg, next());
        else if (arg == "--max-connections")
            options.maxConnections =
                static_cast<std::size_t>(nextUnsigned());
        else if (arg == "--sim-cache-max-entries")
            hpim::sim::MemoCache::instance().setMaxEntries(
                static_cast<std::size_t>(nextUnsigned()));
        else if (arg == "--trace") options.traceFile = next();
        else if (arg == "--failpoints") {
            try {
                hpim::harness::configureFailPoints(next());
            } catch (const hpim::harness::FailPointError &e) {
                fatal("--failpoints: ", e.what(), "\n", kUsage);
            }
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage << '\n';
            return 0;
        } else {
            fatal("unknown argument '", arg, "' (try --help)\n",
                  kUsage);
        }
    }
    fatal_if(options.socketPath.empty(), "--socket is required\n",
             kUsage);

    hpim::serve::Server server(std::move(options));
    g_server = &server;

    struct sigaction action{};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);

    server.run();
    g_server = nullptr;
    return 0;
}
