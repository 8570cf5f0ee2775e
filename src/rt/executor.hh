/**
 * @file
 * The heterogeneous-PIM execution engine.
 *
 * A discrete-event list scheduler over one or more training workloads:
 *  - the host CPU executes kernels one at a time (TF-style inter-op
 *    serialization; intra-op uses the whole socket);
 *  - each programmable PIM executes one kernel at a time;
 *  - the fixed-function pool is a *malleable* resource: active phases
 *    hold whole reduction trees and may gain/lose trees at any event
 *    boundary -- this is what makes the operation pipeline effective.
 *
 * Scheduling follows the paper's three principles (SectionIII-C):
 * favor fixed-function PIMs, avoid CPU idling by keeping candidates on
 * PIMs, and respect data dependences. RC lets Recursive-class ops run
 * on the programmable PIM with their multiply/add core dispatched to
 * the pool; OP admits ops from the next training step while the
 * current one drains.
 */

#ifndef HPIM_RT_EXECUTOR_HH
#define HPIM_RT_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nn/graph.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pim/status_registers.hh"
#include "rt/event_heap.hh"
#include "rt/execution_report.hh"
#include "rt/offload_selector.hh"
#include "rt/schedule_trace.hh"
#include "rt/system_config.hh"
#include "sim/fault_model.hh"

namespace hpim::rt {

/**
 * Thrown when a run's simulated time would pass the last tick of the
 * 64-bit picosecond clock (2^64 ps, about 1.845e7 s). Serve answers it
 * as `bad_request`, hpim_cli exits 1 and a sweep records a failed point.
 */
struct SimulationRangeError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * A placement signature: every fact placement reads about an op. Ops
 * with equal signatures get the same placement under the same device
 * state, so the executor decides once per signature and device view,
 * not once per ready op. Each op's signature is computed once, when
 * Executor::run() starts; a degraded retry gets its rung's signature
 * when it is re-queued.
 */
struct PlacementSignature
{
    hpim::nn::OffloadClass cls = hpim::nn::OffloadClass::FixedFunction;
    bool candidate = true; ///< offload candidate per the selection
    /** CPU run time is under config.cpuFallbackThresholdSec. */
    bool smallOnCpu = false;
    bool managed = true; ///< WorkloadSpec::pimManaged
    /** Reduction-tree width, clamped to the pool size; 0 where the
     *  view's tree bit decides nothing, so such ops share one
     *  signature. decidePlacement() reads the tree bit, never this. */
    std::uint32_t unitsPerLane = 0;
    /** Degradation rung, capped at 2: every rung past the first is
     *  the host CPU. */
    std::uint32_t level = 0;

    bool operator==(const PlacementSignature &) const = default;
};

/**
 * The device state placement reads, as an OR of these bits. Each of
 * the 16 views indexes one entry of a ready queue's verdict table.
 */
struct DeviceView
{
    static constexpr unsigned cpuBusy = 1;
    static constexpr unsigned progrFree = 2; ///< a programmable PIM is idle
    /** The pool has a free reduction tree of the signature's width. */
    static constexpr unsigned treeFree = 4;
    /** Every pool bank has permanently failed (read with faults on). */
    static constexpr unsigned poolFailed = 8;
    static constexpr unsigned count = 16;
};

/**
 * Where an op of signature @p sig starts on @p config under device
 * view @p view (paper SectionIII-C's three principles, then the
 * degradation ladder with faults on), or nullopt when it must wait.
 * A pure function. Bits @p config cannot produce read as clear: those
 * of a device it lacks, and the pool-failed bit with faults off.
 */
std::optional<PlacedOn> decidePlacement(const SystemConfig &config,
                                        const PlacementSignature &sig,
                                        unsigned view);

/** One workload to run (co-run studies pass several). */
struct WorkloadSpec
{
    const hpim::nn::Graph *graph = nullptr;
    std::uint32_t steps = 1;
    /**
     * Full PIM management (profiling-based candidates + all devices)
     * when true; when false the workload is a guest restricted to the
     * CPU and programmable PIM at lower priority (paper SectionVI-F).
     */
    bool pimManaged = true;
};

/** The executor. */
class Executor
{
  public:
    /**
     * @param config system description
     * @param selection offload candidates (nullptr = offload
     *        everything eligible; used by non-scheduled baselines)
     */
    explicit Executor(const SystemConfig &config,
                      const OffloadSelection *selection = nullptr);

    /** Attach a schedule recorder (must outlive run()). */
    void attachTrace(ScheduleTrace *trace) { _trace = trace; }

    /** Run the workloads to completion and report. */
    ExecutionReport run(const std::vector<WorkloadSpec> &workloads);

    /**
     * Events run() may pop before it throws SimulationRangeError. Per
     * op and step: three events per attempt (a launch or control part,
     * a completion or pool-phase pop, a retry) times the attempts an
     * op can make -- one without faults; with faults, maxAttempts on
     * each of the two rungs that can fail, then one on the CPU. Plus
     * one event per killed bank. Pool re-arms (tick rounding left a
     * phase a few flops short) and throttle toggles extend the budget
     * as they happen: they grow with the makespan, not the ops.
     */
    static std::uint64_t
    eventBudget(const SystemConfig &config,
                const std::vector<WorkloadSpec> &workloads);

    /** Convenience: one pim-managed workload. */
    ExecutionReport
    run(const hpim::nn::Graph &graph, std::uint32_t steps = 0)
    {
        WorkloadSpec spec;
        spec.graph = &graph;
        spec.steps = steps == 0 ? _config.steps : steps;
        return run({spec});
    }

  private:
    /** A ready op; (rank, seq) orders its dispatch priority. */
    struct ReadyOp
    {
        /** Managed workloads first, then step, then op id. */
        std::uint64_t rank = 0;
        /** Ready order: breaks (rank) ties between workloads that
         *  share a (step, op), first ready first. */
        std::uint64_t seq = 0;
        OpKey key{};

        bool
        operator<(const ReadyOp &other) const
        {
            return rank != other.rank ? rank < other.rank
                                      : seq < other.seq;
        }
    };

    /** The ready ops of one signature, in priority order. */
    struct ReadyQueue
    {
        PlacementSignature sig;
        std::vector<ReadyOp> ops;
        /** decidePlacement(sig, view) by view, filled on first use;
         *  bit v of @ref decided marks entry v filled. */
        std::array<std::optional<PlacedOn>, DeviceView::count> verdicts{};
        std::uint16_t decided = 0;
        /** The verdict under the current device state, valid while
         *  @ref epoch is current. */
        std::optional<PlacedOn> verdict;
        std::uint64_t epoch = 0;
    };

    struct OpState
    {
        std::uint32_t remainingDeps = 0;
        bool ready = false;
        bool running = false;
        bool done = false;
    };

    /** How an offload attempt failed. */
    enum class FailKind { Transient, Stall, Evicted };

    // Joint completion of RC / host-driven ops (control part on the
    // programmable PIM or CPU + fixed-pool part).
    struct Join
    {
        bool controlDone = false;
        bool fixedDone = false;
        /** A fault poisoned either half: the joint completion becomes
         *  a failed attempt of kind @ref failKind instead of done. */
        bool faulty = false;
        FailKind failKind = FailKind::Transient;
    };

    /**
     * Dense per-step book-keeping, SoA indexed by op id. Replaces the
     * packed-OpKey-keyed hash maps (joins, attempts, degradation
     * levels, running placements, trace tokens) the hot paths used to
     * probe: an op id is already a dense index, so each lookup becomes
     * one vector access instead of a hash + probe chain, and a step's
     * records die with the step instead of churning a process-wide
     * table. Every side array is empty until its feature first writes
     * it (joins: RC/host-driven ops; attempts/degraded/placement:
     * faults; traceToken: attached ScheduleTrace), so fault-free
     * untraced runs allocate only `ops`. The *Live bytes distinguish
     * "slot exists" from a default value, standing in for the old
     * maps' find()/erase().
     */
    struct StepState
    {
        std::vector<OpState> ops;
        std::vector<Join> joins;
        std::vector<std::uint8_t> joinLive;
        std::vector<std::uint32_t> attempts;
        std::vector<std::uint32_t> degraded;
        std::vector<PlacedOn> placement;
        std::vector<std::uint8_t> placementLive;
        std::vector<std::size_t> traceToken;
        std::vector<std::uint8_t> traceLive;
    };

    struct FixedPhase
    {
        OpKey key;
        double remainingFlops = 0.0;
        std::uint32_t treeUnits = 1; ///< units per reduction tree
        std::uint32_t maxTrees = 1;
        double intensity = 1e9;      ///< flops per byte
        std::uint32_t alloc = 0;     ///< currently allocated units
        /** phaseRate() at @ref alloc; poolReallocate() sets both. */
        double rate = 0.0;
        /** Phase is half of a joined (RC / host-driven) op. */
        bool joined = false;
        /** Injected transient fault: completing re-dispatches the op. */
        bool faulty = false;
        double startSec = 0.0;
        /** Integral of allocated units over this phase's lifetime;
         *  feeds the per-span energy annotation in the obs trace. */
        double unitSeconds = 0.0;
    };

    struct WorkloadState
    {
        WorkloadSpec spec;
        /** The graph's consumer lists, built once per run. */
        hpim::nn::ConsumerLists consumers;
        /** [op] ready queue of the op's undegraded signature. */
        std::vector<std::uint32_t> readyQueue;
        /** [op] the op's CPU timing, for startOnCpu(). */
        std::vector<hpim::cpu::OpTiming> cpuTiming;
        std::vector<StepState> steps;            ///< per step
        std::vector<std::uint32_t> remainingOps; ///< per step
        std::uint32_t completedSteps = 0;
        std::uint32_t seededSteps = 0;
    };

    // ---- Scheduling.
    void seedStep(std::uint32_t w, std::uint32_t step);
    /** Queue a ready op under its signature, in priority order. */
    void pushReady(const OpKey &key);
    /** Index of the ready queue for @p sig, created on first use. */
    std::uint32_t queueFor(const PlacementSignature &sig);
    /** @p sig with its level capped and its width clamped, or 0
     *  where placement never reads it. */
    PlacementSignature normalized(PlacementSignature sig) const;
    void dispatchAll();
    /** @p queue's verdict under the current device view, from its
     *  table (filled on the view's first use). */
    std::optional<PlacedOn> verdictNow(ReadyQueue &queue);
    void startOp(const OpKey &key, PlacedOn placement);
    void startOnCpu(const OpKey &key);
    void startOnProgr(const OpKey &key, bool recursive);
    void startOnFixed(const OpKey &key);
    void startHostDriven(const OpKey &key);
    void addPhase(const OpKey &key, double flops, double intensity,
                  std::uint32_t tree_units, std::uint32_t max_trees,
                  bool joined, bool faulty);
    void onOpComplete(const OpKey &key);
    void onJoinedPartDone(const OpKey &key, bool fixed_part);
    /** Schedule @p kind for @p key at the end of the busy interval
     *  [@p start, @p start + @p span] (seconds). */
    void scheduleEnd(Event::Kind kind, const OpKey &key, double start,
                     double span, bool flag = false);
    /** Run one popped event: the switch over Event::Kind. */
    void runEvent(const Event &event);
    /** The fixed pool's phase begins at the end of its launch. */
    void onFixedLaunch(const Event &event);
    /** A failed op's backoff ends; it is ready again. */
    void onRetry(const OpKey &key);

    // ---- Resilience (active only when _config.faults.enabled; every
    // hook below is a no-op / never reached with faults off, keeping
    // fault-free runs bit-identical -- see docs/RESILIENCE.md).
    bool faultsOn() const { return _fault_model != nullptr; }
    void setupFaultLayer();
    void scheduleHealthEvents();
    std::uint32_t degradeLevel(const OpKey &key) const;
    void failAttempt(const OpKey &key, FailKind kind);
    void onBankFailed(std::uint32_t bank);
    void onThrottle(std::uint32_t index, bool start);
    void refreshFixedCapacity();
    void recordCapacity();
    void evictDeadPoolPhases();
    bool allComplete() const;

    // ---- Fixed pool mechanics.
    void poolDrain();        ///< account work done since last update
    void poolReallocate();   ///< redistribute units over phases
    void poolScheduleNext(); ///< re-arm or disarm the pool slot
    void onPoolEvent();
    double phaseRate(const FixedPhase &phase) const;

    // ---- Helpers.
    const hpim::nn::Operation &op(const OpKey &key) const;
    std::string_view label(const OpKey &key) const;
    OpState &state(const OpKey &key);
    StepState &stepState(const OpKey &key);
    /** Fresh live join slot for @p key (sizes the arrays on demand). */
    Join &makeJoin(const OpKey &key);
    std::uint32_t stepWindow(const WorkloadState &w) const;
    double nowSec() const;
    hpim::sim::Tick toTick(double seconds) const;

    SystemConfig _config;
    const OffloadSelection *_selection;
    hpim::cpu::CpuModel _cpu_model;

    EventHeap _events;
    /** Set on entry to run(): one Executor runs once, even if that
     *  run threw. */
    bool _ran = false;
    std::vector<WorkloadState> _workloads;
    /** Ready, not yet placed ops: one queue per signature. */
    std::vector<ReadyQueue> _ready;
    /** Indices of the non-empty queues in _ready. */
    std::vector<std::uint32_t> _live;
    std::uint64_t _ready_seq = 0; ///< next ReadyOp::seq
    /** Bumped whenever device state may have changed; a queue's
     *  verdict from an older epoch is stale. */
    std::uint64_t _epoch = 0;
    /** Verdict refreshes; run() publishes the total as
     *  rt.sched.placement_evals. */
    std::uint64_t _placement_evals = 0;
    /** Verdict-table fills (decidePlacement() calls); published as
     *  rt.sched.placement_decisions. */
    std::uint64_t _placement_decisions = 0;
    /** eventBudget() plus the re-arms and toggles seen so far. */
    std::uint64_t _event_budget = 0;

    // Device state.
    bool _cpu_busy = false;
    std::uint32_t _progr_free = 0;
    std::vector<FixedPhase> _phases;
    /** onPoolEvent()'s finished phases, kept to reuse its storage. */
    std::vector<FixedPhase> _finished;
    std::uint32_t _fixed_free = 0;
    hpim::sim::Tick _pool_last_update = 0;

    /** Human-readable "w:step:op" form, for trace/obs output only. */
    static std::string keyStr(const OpKey &key);

    // Resilience state (see docs/RESILIENCE.md). The capacity pair is
    // maintained even with faults off (then both simply stay at the
    // configured pool size, preserving the fault-free schedule).
    std::unique_ptr<hpim::sim::FaultModel> _fault_model;
    std::unique_ptr<hpim::pim::StatusRegisterFile> _regs;
    std::uint32_t _fixed_capacity = 0; ///< allocatable (Healthy) units
    std::uint32_t _fixed_alive = 0;    ///< non-Failed units
    // (Per-op attempt counts, degradation levels and running
    // placements live in StepState's dense arrays.)

    // Accounting.
    ExecutionReport _report;
    /** Placement census by PlacedOn, counted at start with faults
     *  off and at completion with faults on; run() copies the
     *  non-zero counts into _report.opsByPlacement. */
    std::array<std::uint64_t, 5> _placed{};
    double _op_accum = 0.0;
    double _dm_accum = 0.0;
    double _sync_accum = 0.0;

    // Optional schedule recording.
    ScheduleTrace *_trace = nullptr;

    // ---- Observability (obs/). Each hook is one atomic load when no
    // session/registry is attached, so untraced runs stay bit-identical.
    /** True when a trace session or metrics registry is attached;
     *  call sites use this to skip building argument vectors. */
    static bool
    obsActive()
    {
        return hpim::obs::TraceSession::current() != nullptr
               || hpim::obs::MetricsRegistry::current() != nullptr;
    }
    /** Record a completed device span [start, now] in the obs trace. */
    void obsSpan(const char *track_name, const OpKey &key,
                 double start_sec, double energy_j,
                 std::vector<hpim::obs::TraceArg> extra = {});
    /** Record an instant event (fault, retry, degradation, ...). */
    void obsInstant(const char *track_name, std::string name,
                    std::vector<hpim::obs::TraceArg> args = {});
    /** Bump a named counter in the attached MetricsRegistry. */
    static void obsCount(const char *name, std::uint64_t n = 1);
};

} // namespace hpim::rt

#endif // HPIM_RT_EXECUTOR_HH
