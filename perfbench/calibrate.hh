/**
 * @file
 * Host-speed calibration.
 *
 * On a shared host the speed of a core drifts by tens of percent over
 * seconds as neighbours come and go, far more than the code changes
 * the benchmark exists to see. Timed phases are therefore bracketed by
 * a fixed probe -- benchmark-owned work that no change to the
 * simulator can speed up -- and host times are reported scaled to a
 * reference host: a phase measured while the probe ran 20% slow is
 * reported 20% faster. Compute-bound wall times use the compute probe
 * timed by the wall clock, CPU times the same probe timed by its own
 * CPU clock, and latency-bound serving the wake probe. Raw times are
 * printed beside the scaled ones.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

namespace perfbench {

/** Compute-probe round on the reference host (4-vCPU Xeon VM). */
constexpr double kProbeReferenceMs = 2.0;

/**
 * Run the compute probe -- an event heap, hash and ordered maps,
 * number formatting and a sort, the simulator's kinds of work -- on
 * @p threads threads at once, as many as the timed phase keeps busy,
 * five times; @return the median round in ms.
 */
double probeMs(unsigned threads);

/**
 * Factor turning a host time measured between two compute probes into
 * reference-host time: kProbeReferenceMs / mean(before, after).
 */
double referenceScale(double before_ms, double after_ms);

/** Compute-probe CPU time per thread on the reference host. */
constexpr double kProbeCpuReferenceMs = 2.0;

/**
 * The compute probe on @p threads threads at once, five times; @return
 * the median round's mean CPU time per thread, in ms. Time-slicing by
 * neighbours does not reach it; what slows the code itself on a shared
 * core (cache and memory contention, clock changes) does.
 */
double probeCpuMs(unsigned threads);

/**
 * Factor turning CPU time measured between two CPU probes into
 * reference-host CPU time: kProbeCpuReferenceMs / mean(before, after).
 */
double cpuScale(double before_ms, double after_ms);

/** Wake-probe round trip on the reference host. */
constexpr double kWakeReferenceUs = 25.0;

/**
 * Median round trip, in microseconds, of one byte between two threads
 * over a pair of pipes, both going idle in between. A lightly loaded
 * daemon's request latency is mostly such hand-offs -- generator to IO
 * thread to worker and back -- so it follows the host's wake-up
 * latency more than its compute speed.
 */
double wakeProbeUs();

/** kWakeReferenceUs / mean(before, after). */
double wakeScale(double before_us, double after_us);

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
