#include "exec/sweep.hh"

namespace nvsim::exec
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
    if (jobs_ <= 1)
        return;  // inline mode: no pool
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
SweepRunner::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *task = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> lk(m_);
            workCv_.wait(lk,
                         [&] { return stop_ || batchId_ != seen; });
            if (stop_)
                return;
            seen = batchId_;
            // The batch finished before this worker woke: its claim
            // index belongs to whichever batch the caller starts next.
            if (!task_)
                continue;
            task = task_;
            n = batchSize_;
            ++active_;
        }
        std::size_t done = 0;
        for (;;) {
            std::size_t i =
                nextIndex_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            (*task)(i);
            ++done;
        }
        // Leave the batch under m_: runIndexed() returns (and may reset
        // nextIndex_ for the next batch) only once no worker is inside.
        std::lock_guard<std::mutex> lk(m_);
        completed_ += done;
        if (--active_ == 0)
            doneCv_.notify_all();
    }
}

void
SweepRunner::runIndexed(std::size_t n,
                        const std::function<void(std::size_t)> &task)
{
    if (n == 0)
        return;
    if (jobs_ <= 1 || n == 1) {
        // Serial mode: run inline, in index order, on this thread.
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }
    std::unique_lock<std::mutex> lk(m_);
    task_ = &task;
    batchSize_ = n;
    completed_ = 0;
    nextIndex_.store(0, std::memory_order_relaxed);
    ++batchId_;
    workCv_.notify_all();
    doneCv_.wait(lk, [&] { return completed_ == n && active_ == 0; });
    task_ = nullptr;
    batchSize_ = 0;
}

void
SweepRunner::rethrowFirst(std::vector<std::exception_ptr> &errors)
{
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace nvsim::exec
