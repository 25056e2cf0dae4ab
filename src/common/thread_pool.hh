/**
 * @file
 * Fixed-size worker pool for running independent jobs concurrently.
 *
 * This pool is the only concurrency primitive in the tree: a bounded
 * set of workers draining a FIFO of type-erased jobs.  It serves two
 * levels (DESIGN.md, "Threading model").  Within a run, a
 * Simulation's epoch pipeline resolves each chunk's reference draws
 * in blocks and runs the chunk's address-hashed machine lanes as
 * jobs; the lanes share no mutable state, so the per-access path
 * takes no locks.  Across runs, a sweep schedules many independent
 * Simulation instances at once.
 *
 * Worker count resolution (ThreadPool::defaultJobs) honors the
 * THERMOSTAT_JOBS environment variable so CI and scripts can pin
 * parallelism; otherwise it uses the hardware concurrency.
 */

#ifndef THERMOSTAT_COMMON_THREAD_POOL_HH
#define THERMOSTAT_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace thermostat
{

/**
 * A fixed set of worker threads draining a job queue.
 *
 * Jobs must be independent: the pool provides no ordering guarantee
 * between them.  Deterministic result ordering is the caller's
 * responsibility (write results into a pre-sized slot array indexed
 * by job id; see bench/sweep_runner.hh for the canonical pattern).
 */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers (0 = ThreadPool::defaultJobs()).
     * A single-worker pool degrades to serial execution in queue
     * order, which is how the determinism tests compare serial and
     * parallel sweeps.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. */
    void submit(std::function<void()> job) TSTAT_EXCLUDES(mutex_);

    /**
     * Block until every submitted job has finished running.  If any
     * job threw since the last wait(), rethrows the first captured
     * exception (later ones are dropped); the pool stays usable for
     * further submits afterwards.  The destructor drains without
     * rethrowing.
     */
    void wait() TSTAT_EXCLUDES(mutex_);

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run fn(i) for every i in [begin, end), batched into chunks of
     * at most @p grainsize indices per job, and block until all are
     * done.  Exceptions propagate like wait(): the first one thrown
     * by any fn call is rethrown here.  fn must be safe to call
     * concurrently for distinct indices; within one chunk indices
     * run in increasing order.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     std::size_t grainsize,
                     const std::function<void(std::size_t)> &fn)
        TSTAT_EXCLUDES(mutex_);

    /**
     * Worker count from the environment: THERMOSTAT_JOBS when set to
     * a positive integer, else std::thread::hardware_concurrency()
     * (minimum 1).
     */
    static unsigned defaultJobs();

  private:
    void workerLoop() TSTAT_EXCLUDES(mutex_);
    void drain() TSTAT_EXCLUDES(mutex_);

    std::vector<std::thread> workers_; //!< ctor/dtor thread only

    // Everything below is the pool's shared state; Clang's
    // -Wthread-safety proves every access happens under mutex_
    // (common/mutex.hh explains the annotated-wrapper scheme).
    Mutex mutex_;
    // condition_variable_any waits on the annotated Mutex directly.
    std::condition_variable_any workReady_; //!< job arrived / stop
    std::condition_variable_any allDone_;   //!< everything drained
    std::deque<std::function<void()>> queue_ TSTAT_GUARDED_BY(mutex_);
    std::size_t inFlight_ TSTAT_GUARDED_BY(mutex_) =
        0; //!< queued + currently executing
    bool stopping_ TSTAT_GUARDED_BY(mutex_) = false;
    std::exception_ptr firstError_ TSTAT_GUARDED_BY(mutex_);
};

} // namespace thermostat

#endif // THERMOSTAT_COMMON_THREAD_POOL_HH
