/**
 * @file
 * Blocking client for the hpim_serve wire protocol.
 *
 * hpim_cli's --connect mode, bench/chaos_sweep, perfbench's serve
 * workload and tests/test_serve use this. Connecting retries with
 * bounded exponential backoff (the same
 * `min(base * 2^(attempt-1), cap)` discipline rt::Executor uses for
 * fault retries), so a client racing a daemon that is still binding
 * its socket converges instead of failing. An established connection
 * is reused across call()s; if the daemon went away in between (send
 * fails or the socket is at EOF), call() transparently reconnects and
 * resends once -- requests are idempotent simulations, so a resend is
 * always safe.
 */

#ifndef HPIM_SERVE_CLIENT_HH
#define HPIM_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "serve/protocol.hh"

namespace hpim::serve {

/** Client knobs; defaults suit a local daemon. */
struct ClientOptions
{
    /** Daemon socket path. Required. */
    std::string socketPath;
    /** Connect attempts before giving up (>= 1). */
    std::uint32_t connectAttempts = 5;
    /** First retry delay; doubles per attempt. */
    double backoffBaseMs = 50.0;
    /** Retry delay cap. */
    double backoffCapMs = 2'000.0;
    /** Per-read/write socket timeout; 0 = wait forever. A simulate
     *  call with a long-running request needs this above the
     *  expected simulation time (or a server-side deadline). */
    double ioTimeoutMs = 0.0;
    /** Largest response frame accepted. */
    std::size_t maxFrameBytes = defaultMaxFrameBytes;
};

/**
 * @return the bounded exponential backoff delay before @p attempt
 * (1-based): min(base * 2^(attempt-1), cap).
 */
double backoffMs(const ClientOptions &options, std::uint32_t attempt);

/** One connection to a daemon. Not thread-safe; one per thread. */
class Client
{
  public:
    /** Does not connect; the first call() does. */
    explicit Client(ClientOptions options);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Send @p request and wait for its response. Throws
     * ProtocolError when the daemon is unreachable after all connect
     * attempts, on an IO timeout, or on a malformed response. A
     * response with ok=false (overloaded, deadline_exceeded, ...) is
     * returned, not thrown -- the caller decides the policy.
     */
    Response call(const Request &request);

    /** True while a connection is established. */
    bool connected() const { return _fd >= 0; }

  private:
    void ensureConnected();
    void disconnect();
    bool sendFrame(const std::string &payload);
    bool receiveFrame(std::string &payload);

    ClientOptions _options;
    int _fd = -1;
    std::string _rbuf; ///< bytes read past the last response frame
};

} // namespace hpim::serve

#endif // HPIM_SERVE_CLIENT_HH
