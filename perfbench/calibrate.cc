#include "calibrate.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

namespace perfbench {

namespace {

/** Keeps the probe's result observable so it is not optimized out. */
std::atomic<std::uint64_t> probeSink{0};

std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/** One round of the simulator's kinds of work: an event heap, hash
 *  and ordered maps, number formatting and a sort. */
void
probeWork()
{
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;

    using Event = std::pair<double, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;
    for (std::uint32_t i = 0; i < 3000; ++i) {
        events.emplace(static_cast<double>(xorshift(state) >> 20), i);
        if (i % 3 == 2) {
            sum += events.top().second;
            events.pop();
        }
    }

    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> ordered;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = xorshift(state) & 0xfff;
        table[key] += static_cast<std::uint64_t>(i);
        ordered[key ^ 0x5a5] += 1;
    }
    sum += table.size() + ordered.size();

    std::string text;
    char buf[32];
    for (int i = 0; i < 600; ++i) {
        const int n = std::snprintf(
            buf, sizeof buf, "%.17g,",
            static_cast<double>(xorshift(state) >> 11) * 1e-9);
        text.append(buf, static_cast<std::size_t>(n));
    }
    sum += text.size();

    std::vector<double> values(6000);
    for (double &v : values)
        v = static_cast<double>(xorshift(state) >> 11);
    std::sort(values.begin(), values.end());
    sum += static_cast<std::uint64_t>(values[values.size() / 2]) & 0xff;

    probeSink.fetch_add(sum, std::memory_order_relaxed);
}

double
probeRoundMs(unsigned threads)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> others;
    for (unsigned t = 1; t < threads; ++t)
        others.emplace_back(probeWork);
    probeWork();
    for (std::thread &t : others)
        t.join();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3
           + static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** Mean CPU time of one probeWork() per thread, @p threads at once. */
double
probeCpuRoundMs(unsigned threads)
{
    std::vector<double> cpu_ms(threads, 0.0);
    auto work = [&cpu_ms](unsigned t) {
        const double start = threadCpuMs();
        probeWork();
        cpu_ms[t] = threadCpuMs() - start;
    };
    std::vector<std::thread> others;
    for (unsigned t = 1; t < threads; ++t)
        others.emplace_back(work, t);
    work(0);
    for (std::thread &t : others)
        t.join();
    double sum = 0.0;
    for (double ms : cpu_ms)
        sum += ms;
    return sum / threads;
}

} // namespace

double
probeCpuMs(unsigned threads)
{
    double rounds[5];
    for (double &ms : rounds)
        ms = probeCpuRoundMs(threads);
    std::sort(std::begin(rounds), std::end(rounds));
    return rounds[2];
}

double
cpuScale(double before_ms, double after_ms)
{
    return kProbeCpuReferenceMs / (0.5 * (before_ms + after_ms));
}

double
probeMs(unsigned threads)
{
    double rounds[5];
    for (double &ms : rounds)
        ms = probeRoundMs(threads);
    std::sort(std::begin(rounds), std::end(rounds));
    return rounds[2];
}

double
referenceScale(double before_ms, double after_ms)
{
    return kProbeReferenceMs / (0.5 * (before_ms + after_ms));
}

double
wakeProbeUs()
{
    constexpr int kRoundTrips = 200;
    int ping[2] = {-1, -1}, pong[2] = {-1, -1};
    if (::pipe(ping) != 0 || ::pipe(pong) != 0)
        throw std::runtime_error("wake probe: pipe failed");
    std::thread echo([&] {
        char byte = 0;
        for (int i = 0; i < kRoundTrips; ++i) {
            if (::read(ping[0], &byte, 1) != 1
                || ::write(pong[1], &byte, 1) != 1)
                return;
        }
    });
    std::vector<double> rtt_us;
    char byte = 'w';
    for (int i = 0; i < kRoundTrips; ++i) {
        const auto start = std::chrono::steady_clock::now();
        if (::write(ping[1], &byte, 1) != 1 || ::read(pong[0], &byte, 1) != 1)
            break;
        rtt_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
        // Let both threads go idle, as a daemon does between requests.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Closing the write ends ends the echo thread if a round trip broke.
    ::close(ping[1]);
    echo.join();
    ::close(ping[0]);
    ::close(pong[0]);
    ::close(pong[1]);
    if (rtt_us.size() != kRoundTrips)
        throw std::runtime_error("wake probe: pipe round trip failed");
    std::sort(rtt_us.begin(), rtt_us.end());
    return rtt_us[rtt_us.size() / 2];
}

double
wakeScale(double before_us, double after_us)
{
    return kWakeReferenceUs / (0.5 * (before_us + after_us));
}

} // namespace perfbench
