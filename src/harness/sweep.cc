#include "sweep.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mda::sweep
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

Executor::Executor(unsigned jobs) : _jobs(resolveJobs(jobs))
{
    _threads.reserve(_jobs);
    for (unsigned t = 0; t < _jobs; ++t)
        _threads.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (auto &thread : _threads)
        thread.join();
}

void
Executor::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _shutdown || _generation != seen;
            });
            if (_shutdown)
                return;
            seen = _generation;
        }
        for (;;) {
            std::size_t idx =
                _next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= _count)
                break;
            try {
                (*_fn)(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lock(_mutex);
                _errors.emplace_back(idx, std::current_exception());
            }
        }
        {
            std::lock_guard<std::mutex> lock(_mutex);
            if (--_active == 0)
                _done.notify_all();
        }
    }
}

void
Executor::forEach(std::size_t count,
                  const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;

    std::exception_ptr first_error;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _fn = &fn;
        _count = count;
        _next.store(0, std::memory_order_relaxed);
        _errors.clear();
        _active = _threads.size();
        ++_generation;
        _wake.notify_all();
        _done.wait(lock, [&] { return _active == 0; });
        _fn = nullptr;
        if (!_errors.empty()) {
            auto it = std::min_element(
                _errors.begin(), _errors.end(),
                [](const auto &a, const auto &b) {
                    return a.first < b.first;
                });
            first_error = it->second;
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<RunResult>
runAll(const std::vector<RunSpec> &specs, unsigned jobs)
{
    std::vector<RunResult> results(specs.size());
    Executor pool(jobs);
    pool.forEach(specs.size(), [&](std::size_t idx) {
        results[idx] = runOne(specs[idx]);
    });
    return results;
}

std::vector<KeptRun>
runKept(const std::vector<RunSpec> &specs, unsigned jobs,
        const observe::Options &obs)
{
    std::vector<KeptRun> kept(specs.size());
    Executor pool(jobs);
    observe::CellText text(obs.debugOut, specs.size(),
                           pool.jobs() > 1 && specs.size() > 1);
    pool.forEach(specs.size(), [&](std::size_t idx) {
        observe::Options cell = obs;
        cell.debugOut = text[idx];
        kept[idx].run = std::make_unique<PreparedRun>(specs[idx], cell);
        kept[idx].result = kept[idx].run->system.run();
    });
    text.flush();
    return kept;
}

} // namespace mda::sweep
