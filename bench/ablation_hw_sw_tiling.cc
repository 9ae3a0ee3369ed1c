/**
 * @file
 * The paper's proposed future work (Section X): hardware-software
 * collaborative tiling — iteration-space tiling whose tile size
 * matches the 2P2L 2-D block. This bench tiles sgemm's i loop by 8
 * (sinking the point loop under j) so each B column line fetched is
 * reused by eight consecutive rows, and compares plain vs tiled
 * kernels on the 1P2L and 2P2L hierarchies.
 */

#include "bench_common.hh"
#include "compiler/transforms.hh"

using namespace mda;
using namespace mda::bench;

namespace
{

RunResult
runMaybeTiled(const BenchOptions &opts, DesignPoint design, bool tiled,
              std::ostream *debug_out)
{
    workloads::WorkloadParams params;
    params.n = opts.n;
    auto kernel = workloads::makeSgemm(params);
    if (tiled) {
        // (i, j, k) -> (iT, j, iP, k): B[k][j] column lines are
        // reused across the 8 rows of the block.
        compiler::tileLoop(kernel, 0, 0, 2, 8);
    }
    RunSpec spec = opts.spec("sgemm", design);
    auto compiled = compiler::compileKernel(
        std::move(kernel), spec.system.compileOptions());
    SystemConfig config = spec.autoScaleCaches
                              ? spec.system.scaledForInput(spec.n)
                              : spec.system;
    observe::Options obs = opts.observe;
    obs.debugOut = debug_out;
    System system(config, compiled, obs);
    return system.run();
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = BenchOptions::parse(argc, argv);

    std::cout << "MDACache hardware-software tiling study (sgemm, "
              << opts.describe() << ")\n";
    report::banner("software tiling matched to the 2-D block size");
    report::Table table({"design", "plain cycles", "tiled cycles",
                         "speedup", "plain MB", "tiled MB"});
    const std::vector<DesignPoint> designs{
        DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
        DesignPoint::D2_2P2L};

    // The tiled variants compile a transformed kernel, so these cells
    // are not expressible as RunSpecs; drive the pool directly.
    std::vector<RunResult> results(designs.size() * 2);
    sweep::Executor pool(opts.jobs);
    observe::CellText text(opts.observe.debugOut, results.size(),
                           pool.jobs() > 1);
    pool.forEach(results.size(), [&](std::size_t idx) {
        results[idx] = runMaybeTiled(opts, designs[idx / 2],
                                     idx % 2 != 0, text[idx]);
    });
    text.flush();

    for (std::size_t d = 0; d < designs.size(); ++d) {
        auto design = designs[d];
        const auto &plain = results[d * 2];
        const auto &tiled = results[d * 2 + 1];
        table.addRow(
            {designName(design), std::to_string(plain.cycles),
             std::to_string(tiled.cycles),
             report::fmt(static_cast<double>(plain.cycles) /
                             static_cast<double>(tiled.cycles),
                         2) +
                 "x",
             report::fmt(plain.memBytes / 1.0e6, 1),
             report::fmt(tiled.memBytes / 1.0e6, 1)});
    }
    table.print();
    std::cout << "\nPaper conjecture: tiling the iteration space to "
                 "the 2-D block size compounds with 2P2L caching "
                 "(\"better results than software or hardware tiling "
                 "alone\").\n";
    return 0;
}
