/**
 * @file
 * Schedule-equivalence edge matrix: one table of sampling designs
 * that sit on the schedule's edges, and for each design every
 * execution mode folded back to the serial run() byte for byte.
 *
 * Designs (each derived from the stream's own length L, so the edge
 * is hit whatever the workload's length is):
 *  - offset 0 with W > 0 (warmStart clamps to 0 on the first unit);
 *  - k = 1 with W > U (back-to-back units, W never fits);
 *  - offset past the end of the stream (no unit at all);
 *  - the stream ending inside the last unit's W window;
 *  - the stream ending inside the last measured unit U (a truncated,
 *    dropped unit).
 *
 * Pairs checked for every design:
 *  - run() == runSharded at 1/2/5 shards, cold and prebuilt;
 *  - run() == runAnytime driven to completion;
 *  - run() == measureUnits over every live-point slot;
 *  - runMatched().perConfig[c] == the single-config run() of c;
 *  - MixSampler::run() == mix runSharded at 1/2/5 shards, cold and
 *    prebuilt.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check.hh"
#include "core/checkpoint.hh"
#include "core/livepoint.hh"
#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/session.hh"
#include "estimate_fingerprint.hh"
#include "exec/thread_pool.hh"
#include "mp/mix_library.hh"
#include "mp/mix_sampler.hh"
#include "uarch/config.hh"
#include "workloads/benchmark.hh"

namespace {

using namespace smarts;
using smarts::test::fingerprint;

/** A named design, derived from the length L of the stream it runs on. */
struct Design
{
    const char *name;
    std::function<core::SamplingConfig(std::uint64_t length)> make;
};

core::SamplingConfig
base(std::uint64_t u, std::uint64_t w, std::uint64_t k)
{
    core::SamplingConfig sc;
    sc.unitSize = u;
    sc.detailedWarming = w;
    sc.interval = k;
    sc.warming = core::WarmingMode::Functional;
    return sc;
}

const std::vector<Design> &
designs()
{
    static const std::vector<Design> table = {
        {"offset 0, W > 0",
         [](std::uint64_t) { return base(1000, 2000, 17); }},
        {"k = 1, W > U",
         [](std::uint64_t) { return base(500, 2000, 1); }},
        {"offset past the end",
         [](std::uint64_t length) {
             core::SamplingConfig sc = base(1000, 2000, 10);
             sc.offset = length / sc.unitSize + 5;
             return sc;
         }},
        {"stream ends inside W",
         [](std::uint64_t length) {
             // The first unit starting at or after L has its W
             // window (W > U) straddle the stream's end.
             core::SamplingConfig sc = base(1000, 3000, 7);
             const std::uint64_t last =
                 (length + sc.unitSize - 1) / sc.unitSize;
             sc.offset = last % sc.interval;
             return sc;
         }},
        {"stream ends inside U",
         [](std::uint64_t length) {
             // The last unit starting before L is cut by the stream's
             // end (U = 997 keeps L off a unit boundary).
             core::SamplingConfig sc = base(997, 1500, 9);
             const std::uint64_t last = (length - 1) / sc.unitSize;
             sc.offset = last % sc.interval;
             return sc;
         }},
    };
    return table;
}

const std::size_t kShardCounts[] = {1, 2, 5};

std::uint64_t
soloLength(const workloads::BenchmarkSpec &spec,
           const uarch::MachineConfig &machine)
{
    core::SimSession probe(spec, machine);
    return probe.fastForward(~0ull >> 1, core::WarmingMode::None);
}

void
checkSoloModes(const Design &design, exec::ThreadPool &pool)
{
    const workloads::BenchmarkSpec spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const uarch::MachineConfig c8 = uarch::MachineConfig::eightWay();
    const uarch::MachineConfig c16 =
        uarch::MachineConfig::sixteenWay();
    const std::uint64_t length = soloLength(spec, c8);
    const core::SamplingConfig sc = design.make(length);
    const core::SystematicSampler sampler(sc);
    std::fprintf(stderr, "design '%s': L=%llu U=%llu W=%llu k=%llu "
                         "j=%llu\n",
                 design.name, static_cast<unsigned long long>(length),
                 static_cast<unsigned long long>(sc.unitSize),
                 static_cast<unsigned long long>(sc.detailedWarming),
                 static_cast<unsigned long long>(sc.interval),
                 static_cast<unsigned long long>(sc.offset));

    core::SimSession serialSession(spec, c8);
    const core::SmartsEstimate serial = sampler.run(serialSession);
    const std::vector<std::uint64_t> want = fingerprint(serial);
    CHECK_EQ(serial.streamLength, length);

    const core::SessionFactory factory = [&spec, &c8] {
        return std::make_unique<core::SimSession>(spec, c8);
    };
    for (const std::size_t shards : kShardCounts) {
        CHECK(fingerprint(sampler.runSharded(factory, length, shards,
                                             pool)) == want);
        const std::vector<core::ShardSpec> plan =
            core::CheckpointLibrary::planShards(sc, length, shards);
        core::SimSession captureSession(spec, c8);
        const core::CheckpointLibrary library =
            core::CheckpointLibrary::build(captureSession, sc, plan);
        CHECK(fingerprint(sampler.runSharded(factory, library, pool)) ==
              want);
    }

    core::SimSession liveSession(spec, c8);
    const core::LivePointLibrary points =
        core::LivePointLibrary::build(liveSession, sc);
    CHECK_EQ(points.streamLength(), length);
    core::AnytimeOptions options;
    options.target.epsilon = 0.0; // completion: measure every point.
    const core::AnytimeResult anytime =
        sampler.runAnytime(factory, points, pool, options);
    CHECK(fingerprint(anytime.estimate) == want);
    CHECK(!anytime.earlyStopped);

    core::SimSession rangeSession(spec, c8);
    core::SmartsEstimate ranged;
    core::SystematicSampler::foldSlice(
        ranged, sampler.measureUnits(rangeSession, points, 0,
                                     points.unitCount()));
    CHECK(fingerprint(ranged) == want);

    core::MultiSession multi(spec, {c8, c16});
    const core::MatchedEstimate matched = sampler.runMatched(multi);
    CHECK(fingerprint(matched.perConfig[0]) == want);
    core::SimSession session16(spec, c16);
    CHECK(fingerprint(matched.perConfig[1]) ==
          fingerprint(sampler.run(session16)));
}

void
checkMixModes(const Design &design, exec::ThreadPool &pool)
{
    const mp::WorkloadMix mix = mp::WorkloadMix::of(
        {workloads::findBenchmark("chase-1", workloads::Scale::Mini),
         workloads::findBenchmark("mix-1", workloads::Scale::Mini)},
        mem::PartitionPolicy::Shared);
    const uarch::MachineConfig machine =
        uarch::MachineConfig::eightWay();
    const std::uint64_t length =
        mp::MixSampler(mix, machine, base(1000, 0, 1))
            .measureStreamLength();
    const core::SamplingConfig sc = design.make(length);
    const mp::MixSampler sampler(mix, machine, sc);

    const std::vector<std::uint64_t> want = sampler.run().fingerprint();
    for (const std::size_t shards : kShardCounts) {
        CHECK(sampler.runSharded(length, shards, pool).fingerprint() ==
              want);
        const std::vector<core::ShardSpec> plan =
            core::CheckpointLibrary::planShards(sc, length, shards);
        mp::MixSession captureSession = sampler.makeSession();
        const mp::MixLibrary library =
            mp::MixLibrary::build(captureSession, sc, plan);
        CHECK(sampler.runSharded(library, pool).fingerprint() == want);
    }
}

/** The designs really reach the edges they are named after. */
void
checkDesignsHitTheirEdges()
{
    const workloads::BenchmarkSpec spec =
        workloads::findBenchmark("sort-1", workloads::Scale::Mini);
    const uarch::MachineConfig c8 = uarch::MachineConfig::eightWay();
    const std::uint64_t length = soloLength(spec, c8);
    auto serialOf = [&](const Design &design) {
        core::SimSession session(spec, c8);
        return core::SystematicSampler(design.make(length))
            .run(session);
    };
    const std::vector<Design> &table = designs();
    CHECK(serialOf(table[0]).units() > 0);
    CHECK(serialOf(table[1]).units() > 0);
    CHECK_EQ(serialOf(table[1]).instructionsWarmed, std::uint64_t(0));
    CHECK_EQ(serialOf(table[2]).units(), std::uint64_t(0));
    CHECK_EQ(serialOf(table[2]).streamLength, length);
    // Ending inside W: nothing is dropped, but the stream ran out
    // before the last unit's start.
    const core::SamplingConfig insideW = table[3].make(length);
    const std::uint64_t lastStart =
        ((length + insideW.unitSize - 1) / insideW.unitSize) *
        insideW.unitSize;
    CHECK(lastStart >= length);
    CHECK(lastStart - insideW.detailedWarming < length);
    CHECK(serialOf(table[3]).units() > 0);
    CHECK_EQ(serialOf(table[3]).instructionsDropped, std::uint64_t(0));
    // Ending inside U: a truncated unit's instructions are dropped.
    CHECK(serialOf(table[4]).instructionsDropped > 0);
}

} // namespace

int
main()
{
    exec::ThreadPool pool(3);
    checkDesignsHitTheirEdges();
    for (const Design &design : designs()) {
        checkSoloModes(design, pool);
        checkMixModes(design, pool);
    }
    TEST_MAIN_SUMMARY();
}
