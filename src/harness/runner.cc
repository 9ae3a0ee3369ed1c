#include "runner.hh"

#include "trace/trace_source.hh"
#include "workloads/emitters.hh"

namespace mda
{

namespace
{

/** Compile the workload's loop-nest IR — unless this run replays a
 *  captured trace (no IR needed at all) or the workload is a direct
 *  trace emitter (it has no IR to compile). */
std::optional<compiler::CompiledKernel>
maybeCompile(const RunSpec &spec)
{
    if (spec.system.traceMode == TraceMode::Replay)
        return std::nullopt;
    if (workloads::isEmitterWorkload(spec.workload))
        return std::nullopt;
    return compiler::compileKernel(
        workloads::makeWorkload(spec.workload,
                                PreparedRun::workloadParams(spec)),
        spec.system.compileOptions());
}

std::unique_ptr<System>
buildSystem(const RunSpec &spec,
            const std::optional<compiler::CompiledKernel> &kernel,
            const observe::Options &obs)
{
    const SystemConfig &cfg = spec.system;

    std::string trace_path;
    if (cfg.traceMode != TraceMode::Off) {
        if (cfg.traceDir.empty())
            fatal("trace capture/replay requires a trace directory");
        trace_path = cfg.traceDir + "/" +
                     trace::traceFileName(spec.workload, spec.n,
                                          spec.seed,
                                          cfg.compileOptions());
    }

    std::unique_ptr<trace::TraceSource> source;
    if (cfg.traceMode == TraceMode::Replay) {
        source = std::make_unique<trace::ReplaySource>(trace_path);
    } else {
        if (kernel) {
            source =
                std::make_unique<trace::GeneratorSource>(*kernel);
        } else {
            source = workloads::makeEmitterSource(
                spec.workload, PreparedRun::workloadParams(spec),
                cfg.compileOptions());
        }
        if (cfg.traceMode == TraceMode::Capture) {
            source = std::make_unique<trace::CaptureSource>(
                std::move(source), trace_path);
        }
    }

    SystemConfig sys =
        spec.autoScaleCaches ? cfg.scaledForInput(spec.n) : cfg;
    return std::make_unique<System>(sys, std::move(source), obs);
}

} // namespace

PreparedRun::PreparedRun(const RunSpec &spec,
                         const observe::Options &obs)
    : kernel(maybeCompile(spec)),
      _system(buildSystem(spec, kernel, obs)),
      system(*_system)
{}

} // namespace mda
