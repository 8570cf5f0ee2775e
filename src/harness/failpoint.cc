#include "harness/failpoint.hh"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <thread>

#include "sim/hash.hh"
#include "sim/logging.hh"

namespace hpim::harness {

/** Parsed trigger + outcome of one armed site. */
struct FailPoint::Program
{
    enum class Trigger : std::uint8_t { After, Every, Prob };

    Trigger trigger = Trigger::After;
    std::uint64_t n = 0;    ///< After/Every parameter
    double p = 0.0;         ///< Prob probability
    std::uint64_t seed = 0; ///< Prob stream seed
    FailKind kind = FailKind::Eio;
    std::uint64_t bytes = 0; ///< ShortWrite byte cap
};

namespace {

/** Registration and arming both serialize on one mutex; fireSlow()
 *  (only reachable while some site is armed) takes it too, so a
 *  program can never be torn down under a running activation. */
struct Registry
{
    std::mutex mutex;
    std::map<std::string, FailPoint *> sites;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

/** Uniform double in [0,1) from (seed, index), stable across runs. */
double
uniformAt(std::uint64_t seed, std::uint64_t index)
{
    const std::uint64_t h = hpim::sim::hashU64(index, seed);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

/** Friended helpers that need FailPoint's private internals. */
struct FailPointDetail
{
    /** Recompute the fast-path gate from the armed programs. Caller
     *  holds the registry mutex. */
    static void
    refreshArmedCount()
    {
        std::uint32_t armed = 0;
        for (const auto &[name, site] : registry().sites) {
            if (site->_program != nullptr)
                ++armed;
        }
        FailPoint::armedCount().store(armed,
                                      std::memory_order_relaxed);
    }

    /** Parse "trigger:outcome"; @return null for "off". */
    static FailPoint::Program *parseProgram(const std::string &text,
                                            const std::string &program);
};

IoError::IoError(std::string operation, std::string file_path,
                 int error)
    : std::runtime_error("io error: " + operation + " '" + file_path
                         + "': " + std::strerror(error)),
      op(std::move(operation)), path(std::move(file_path)), err(error)
{
}

FailPoint::FailPoint(const char *site) : _site(site)
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    registry().sites[_site] = this;
}

FailPoint::~FailPoint()
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    auto it = registry().sites.find(_site);
    if (it != registry().sites.end() && it->second == this)
        registry().sites.erase(it);
    delete _program;
    _program = nullptr;
    FailPointDetail::refreshArmedCount();
}

std::atomic<std::uint32_t> &
FailPoint::armedCount()
{
    static std::atomic<std::uint32_t> count{0};
    return count;
}

std::uint64_t
FailPoint::hits() const
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    return _hits;
}

FailDecision
FailPoint::fireSlow()
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    if (_program == nullptr)
        return {};
    ++_hits;
    bool fail = false;
    switch (_program->trigger) {
      case Program::Trigger::After:
        // Pass N activations, fail the (N+1)th once, pass forever:
        // the one-shot mid-run crash.
        fail = _hits == _program->n + 1;
        break;
      case Program::Trigger::Every:
        fail = _program->n > 0 && _hits % _program->n == 0;
        break;
      case Program::Trigger::Prob:
        fail = uniformAt(_program->seed, _hits) < _program->p;
        break;
    }
    if (!fail)
        return {};
    return FailDecision{_program->kind, _program->bytes};
}

namespace {

// ------------------------------------------------------------ spec parser

std::string
trimmed(const std::string &text)
{
    std::size_t begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    std::size_t end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

std::uint64_t
parseSpecUint(const std::string &text, const std::string &program)
{
    char *end = nullptr;
    errno = 0;
    std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size()
        || text[0] == '-' || errno == ERANGE)
        throw FailPointError("'" + text
                             + "' is not an unsigned integer in '"
                             + program + "'");
    return value;
}

double
parseSpecProb(const std::string &text, const std::string &program)
{
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(text.c_str(), &end);
    // Written as a test of membership so that NaN, which strtod
    // accepts and which compares false both ways, is rejected too.
    if (text.empty() || end != text.c_str() + text.size()
        || !(value >= 0.0 && value <= 1.0))
        throw FailPointError("'" + text
                             + "' is not a probability in [0,1] in '"
                             + program + "'");
    return value;
}

/** Split "name(args)" into name and args; args empty when no parens. */
bool
splitCall(const std::string &text, std::string &name,
          std::string &args)
{
    std::size_t open = text.find('(');
    if (open == std::string::npos) {
        name = text;
        args.clear();
        return true;
    }
    if (text.back() != ')')
        return false;
    name = text.substr(0, open);
    args = text.substr(open + 1, text.size() - open - 2);
    return true;
}

FailKind
parseOutcome(const std::string &text, std::uint64_t &bytes,
             const std::string &program)
{
    std::string name, args;
    if (!splitCall(trimmed(text), name, args))
        throw FailPointError("malformed outcome '" + text + "' in '"
                             + program + "'");
    bytes = 0;
    if (name == "enospc") return FailKind::Enospc;
    if (name == "eintr") return FailKind::Eintr;
    if (name == "eio") return FailKind::Eio;
    if (name == "fsync") return FailKind::FsyncFail;
    if (name == "rename") return FailKind::RenameFail;
    if (name == "alloc") return FailKind::AllocFail;
    if (name == "short") {
        if (args.empty())
            throw FailPointError("short needs a byte count, e.g. "
                                 "short(8), in '" + program + "'");
        bytes = parseSpecUint(trimmed(args), program);
        return FailKind::ShortWrite;
    }
    throw FailPointError(
        "unknown outcome '" + name + "' in '" + program
        + "' (expected enospc, eintr, eio, short(K), fsync, rename "
          "or alloc)");
}

} // namespace

FailPoint::Program *
FailPointDetail::parseProgram(const std::string &text,
                              const std::string &program)
{
    std::size_t colon = text.find(':');
    const std::string trigger_text =
        trimmed(colon == std::string::npos ? text
                                           : text.substr(0, colon));
    std::string name, args;
    if (!splitCall(trigger_text, name, args))
        throw FailPointError("malformed trigger '" + trigger_text
                             + "' in '" + program + "'");
    if (name == "off") {
        if (colon != std::string::npos)
            throw FailPointError("'off' takes no outcome in '"
                                 + program + "'");
        return nullptr;
    }
    if (colon == std::string::npos)
        throw FailPointError(
            "missing ':outcome' in '" + program
            + "' (e.g. journal.append.write=after(3):enospc)");

    auto parsed = std::make_unique<FailPoint::Program>();
    if (name == "after") {
        parsed->trigger = FailPoint::Program::Trigger::After;
        parsed->n = parseSpecUint(trimmed(args), program);
    } else if (name == "every") {
        parsed->trigger = FailPoint::Program::Trigger::Every;
        parsed->n = parseSpecUint(trimmed(args), program);
        if (parsed->n == 0)
            throw FailPointError("every needs N >= 1 in '" + program
                                 + "'");
    } else if (name == "prob") {
        std::size_t comma = args.find(',');
        if (comma == std::string::npos)
            throw FailPointError("prob needs (P,SEED) in '" + program
                                 + "'");
        parsed->trigger = FailPoint::Program::Trigger::Prob;
        parsed->p = parseSpecProb(trimmed(args.substr(0, comma)),
                                  program);
        parsed->seed = parseSpecUint(trimmed(args.substr(comma + 1)),
                                     program);
    } else {
        throw FailPointError(
            "unknown trigger '" + name + "' in '" + program
            + "' (expected off, after(N), every(N) or prob(P,SEED))");
    }
    parsed->kind = parseOutcome(text.substr(colon + 1), parsed->bytes,
                                program);
    return parsed.release();
}

void
configureFailPoints(const std::string &spec)
{
    // Parse the whole spec and resolve every site before arming
    // anything, so a malformed tail or an unknown site never leaves a
    // half-armed chaos program behind.
    struct Parsed
    {
        std::string site;
        std::unique_ptr<FailPoint::Program> program;
        FailPoint *target = nullptr;
    };
    std::vector<Parsed> parsed;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t semi = spec.find(';', pos);
        if (semi == std::string::npos)
            semi = spec.size();
        const std::string program =
            trimmed(spec.substr(pos, semi - pos));
        pos = semi + 1;
        if (program.empty())
            continue;
        std::size_t eq = program.find('=');
        if (eq == std::string::npos || eq == 0)
            throw FailPointError(
                "missing 'site=' in '" + program
                + "' (e.g. journal.append.write=after(3):enospc)");
        parsed.push_back(Parsed{
            trimmed(program.substr(0, eq)),
            std::unique_ptr<FailPoint::Program>(
                FailPointDetail::parseProgram(program.substr(eq + 1),
                                              program))});
    }

    std::lock_guard<std::mutex> lock(registry().mutex);
    for (Parsed &entry : parsed) {
        auto it = registry().sites.find(entry.site);
        if (it == registry().sites.end()) {
            std::string known;
            for (const auto &[name, site] : registry().sites)
                known += (known.empty() ? "" : ", ") + name;
            throw FailPointError("unknown site '" + entry.site
                                 + "' (registered sites: " + known
                                 + ")");
        }
        entry.target = it->second;
    }
    for (Parsed &entry : parsed) {
        delete entry.target->_program;
        entry.target->_program = entry.program.release();
        entry.target->_hits = 0;
    }
    FailPointDetail::refreshArmedCount();
}

void
clearFailPoints()
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    for (auto &[name, site] : registry().sites) {
        delete site->_program;
        site->_program = nullptr;
        site->_hits = 0;
    }
    FailPoint::armedCount().store(0, std::memory_order_relaxed);
}

void
configureFailPointsFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *spec = std::getenv("HPIM_FAILPOINTS");
        if (spec == nullptr || spec[0] == '\0')
            return;
        try {
            configureFailPoints(spec);
        } catch (const FailPointError &e) {
            fatal("HPIM_FAILPOINTS: ", e.what());
        }
    });
}

std::vector<std::string>
failPointSites()
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    std::vector<std::string> names;
    names.reserve(registry().sites.size());
    for (const auto &[name, site] : registry().sites)
        names.push_back(name);
    return names; // std::map iterates sorted
}

bool
failPointsArmed()
{
    return FailPoint::armedCount().load(std::memory_order_relaxed)
           != 0;
}

// ----------------------------------------------------- syscall wrappers

namespace {

/** Map a non-short decision to its errno; 0 = not errno-shaped. */
int
decisionErrno(const FailDecision &decision)
{
    switch (decision.kind) {
      case FailKind::Enospc: return ENOSPC;
      case FailKind::Eintr: return EINTR;
      case FailKind::Eio: return EIO;
      case FailKind::FsyncFail: return EIO;
      case FailKind::RenameFail: return EIO;
      default: return 0;
    }
}

[[noreturn]] void
throwAlloc()
{
    throw std::bad_alloc();
}

} // namespace

ssize_t
fpWrite(FailPoint &fp, int fd, const void *data, std::size_t size)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        if (decision.kind == FailKind::ShortWrite) {
            const std::size_t cap = std::min<std::size_t>(
                size, static_cast<std::size_t>(decision.bytes));
            if (cap == 0) {
                // A zero-byte allowance degenerates to disk-full.
                errno = ENOSPC;
                return -1;
            }
            return ::write(fd, data, cap);
        }
        errno = decisionErrno(decision);
        return -1;
    }
    return ::write(fd, data, size);
}

int
fpFsync(FailPoint &fp, int fd)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        errno = decisionErrno(decision);
        if (errno == 0)
            errno = EIO; // short has no fsync analogue
        return -1;
    }
    return ::fsync(fd);
}

int
fpRename(FailPoint &fp, const char *from, const char *to)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        errno = decisionErrno(decision);
        if (errno == 0)
            errno = EIO;
        return -1;
    }
    return ::rename(from, to);
}

int
fpOpen(FailPoint &fp, const char *path, int flags, unsigned int mode)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        errno = decisionErrno(decision);
        if (errno == 0)
            errno = EIO;
        return -1;
    }
    return ::open(path, flags, static_cast<mode_t>(mode));
}

ssize_t
fpSend(FailPoint &fp, int fd, const void *data, std::size_t size,
       int flags)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        if (decision.kind == FailKind::ShortWrite) {
            const std::size_t cap = std::min<std::size_t>(
                std::max<std::uint64_t>(decision.bytes, 1), size);
            return ::send(fd, data, cap, flags);
        }
        errno = decisionErrno(decision);
        return -1;
    }
    return ::send(fd, data, size, flags);
}

ssize_t
fpRecv(FailPoint &fp, int fd, void *data, std::size_t size)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        if (decision.kind == FailKind::ShortWrite) {
            const std::size_t cap = std::min<std::size_t>(
                std::max<std::uint64_t>(decision.bytes, 1), size);
            return ::read(fd, data, cap);
        }
        errno = decisionErrno(decision);
        return -1;
    }
    return ::read(fd, data, size);
}

void
fpCheck(FailPoint &fp, const char *op, const std::string &path)
{
    if (FailDecision decision = fp.fire()) {
        if (decision.kind == FailKind::AllocFail)
            throwAlloc();
        int err = decisionErrno(decision);
        throw IoError(op, path, err != 0 ? err : EIO);
    }
}

void
fpWriteAll(FailPoint &fp, int fd, const std::string &data,
           const std::string &path)
{
    std::size_t written = 0;
    std::uint32_t stalled = 0; ///< consecutive zero-progress attempts
    while (written < data.size()) {
        ssize_t n = fpWrite(fp, fd, data.data() + written,
                            data.size() - written);
        if (n < 0) {
            if (errno != EINTR)
                throw IoError("write", path, errno);
            if (++stalled > failPointTransientRetryLimit)
                throw IoError("write", path, EINTR);
        } else if (n == 0) {
            // A 0-byte "success" on a regular file is a stall, not
            // progress; treat like a transient and bound it.
            if (++stalled > failPointTransientRetryLimit)
                throw IoError("write", path, ENOSPC);
        } else {
            written += static_cast<std::size_t>(n);
            stalled = 0;
            continue;
        }
        if (stalled > 1) {
            // Exponential backoff, capped at ~1 ms: long enough for
            // a genuinely transient condition to clear, short enough
            // that the bounded retry budget stays well under 100 ms.
            const std::uint32_t shift = std::min(stalled, 10u);
            std::this_thread::sleep_for(
                std::chrono::microseconds(1u << shift));
        }
    }
}

} // namespace hpim::harness
