/**
 * @file
 * Multi-threaded runner for independent simulations.
 *
 * Every figure in the reproduction replays a (design x workload)
 * grid of simulations that share nothing: each System owns a private
 * EventQueue, RNG, and statistics. SweepRunner exploits that
 * embarrassing parallelism with a small work-stealing thread pool
 * while keeping the output deterministic — results are stored by job
 * index, so a parallel sweep is byte-identical to a serial one
 * regardless of completion order.
 */

#ifndef TSIM_SIM_SWEEP_RUNNER_HH
#define TSIM_SIM_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "system/system.hh"
#include "workload/profiles.hh"

namespace tsim
{

/** One (configuration, workload) pair of a sweep. */
struct SweepJob
{
    SystemConfig cfg;
    WorkloadProfile workload;
};

/**
 * Give every job a distinct trace path `<prefix>_jobNNN.tdt` so a
 * parallel sweep never has two Systems writing one file. Job order is
 * the naming key, so serial and `--jobs N` sweeps of the same job
 * list produce identical file sets (CI diffs them byte-for-byte).
 * Empty @p prefix clears every tracePath.
 */
void applyTracePrefix(std::vector<SweepJob> &jobs,
                      const std::string &prefix);

/**
 * Work-stealing pool for independent simulation runs.
 *
 * Jobs are dealt round-robin onto per-worker deques; each worker
 * drains its own deque from the front and steals from the back of
 * its peers when it runs dry. Exceptions thrown by a job are
 * captured and rethrown on the calling thread after the pool joins.
 */
class SweepRunner
{
  public:
    /** @param jobs Worker count; 0 means hardware_concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    /** Number of workers this runner uses. */
    unsigned jobs() const { return _jobs; }

    /**
     * Invoke @p fn(i) for every i in [0, n), distributed across the
     * pool. fn must only touch per-index state. Returns after every
     * index completed; rethrows the first captured exception.
     */
    void forEach(std::size_t n,
                 // tdram-lint:allow(hot-alloc): host-side sweep
                 // orchestration interface, not per-event code.
                 const std::function<void(std::size_t)> &fn) const;

    /** Validate, then run, every job; reports come in job order. */
    std::vector<SimReport> run(const std::vector<SweepJob> &jobs) const;

  private:
    unsigned _jobs;
};

} // namespace tsim

#endif // TSIM_SIM_SWEEP_RUNNER_HH
