/**
 * @file
 * Thread-pool sweep executor for figure/ablation benches.
 *
 * Every paper figure is a sweep over independent (workload, design,
 * capacity) cells; each cell builds its own System with a private
 * EventQueue and seeded Rng, so cells can run concurrently. The
 * Executor owns a bounded pool of worker threads and distributes cell
 * indices over it; results are stored by index, so output order is
 * the input order regardless of which worker finishes first.
 *
 * Determinism contract: a cell's result depends only on its RunSpec
 * (including its seed), never on the job count or completion order.
 * Callers keep that contract by deriving every per-cell seed from the
 * spec, not from shared counters or wall-clock state. Observation
 * (debug text, Chrome traces) is per System too, so traced sweeps run
 * at any job count; runKept() writes the cells' debug text in cell
 * order.
 */

#ifndef MDA_HARNESS_SWEEP_HH
#define MDA_HARNESS_SWEEP_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "observe.hh"
#include "runner.hh"

namespace mda::sweep
{

/** Resolve a --jobs request: 0 means hardware concurrency (at least
 *  1 even when the hardware cannot be queried). */
unsigned resolveJobs(unsigned requested);

/** Bounded worker pool executing sweep cells by index. */
class Executor
{
  public:
    /** @param jobs Worker count; 0 resolves to hardware concurrency. */
    explicit Executor(unsigned jobs = 0);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    unsigned jobs() const { return _jobs; }

    /**
     * Run fn(0) .. fn(count-1) across the pool and block until every
     * task finished. Tasks are pulled from a shared atomic cursor, so
     * a single worker executes them in index order.
     *
     * If any task throws, every remaining task still runs; afterwards
     * the exception from the lowest failing index is rethrown — the
     * same exception a sequential loop would surface first, so
     * propagation is deterministic across job counts.
     *
     * Not reentrant; calling forEach from inside a task deadlocks by
     * design.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();

    const unsigned _jobs;
    std::vector<std::thread> _threads;

    std::mutex _mutex;
    std::condition_variable _wake;
    std::condition_variable _done;
    bool _shutdown = false;
    std::uint64_t _generation = 0;
    std::size_t _active = 0;

    const std::function<void(std::size_t)> *_fn = nullptr;
    std::size_t _count = 0;
    std::atomic<std::size_t> _next{0};

    /** (index, exception) for failed tasks of the current batch. */
    std::vector<std::pair<std::size_t, std::exception_ptr>> _errors;
};

/** Run every spec through a pool of @p jobs workers; results are
 *  returned in input order. */
std::vector<RunResult> runAll(const std::vector<RunSpec> &specs,
                              unsigned jobs = 0);

/** A sweep cell kept alive after its run, for reporting. */
struct KeptRun
{
    std::unique_ptr<PreparedRun> run;
    RunResult result;
};

/**
 * Build and run every spec through a pool of @p jobs workers, each
 * cell's System observed as @p obs asks, and keep the cells in input
 * order. The cells' debug text reaches obs.debugOut (standard error
 * when null) in input order at any job count; each cell's trace is
 * its System's traceLog().
 */
std::vector<KeptRun> runKept(const std::vector<RunSpec> &specs,
                             unsigned jobs,
                             const observe::Options &obs = {});

} // namespace mda::sweep

#endif // MDA_HARNESS_SWEEP_HH
