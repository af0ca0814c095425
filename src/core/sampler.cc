#include "core/sampler.hh"

#include <utility>

#include "core/schedule.hh"
#include "core/shard_executor.hh"
#include "util/logging.hh"

namespace smarts::core {

std::string
SamplingConfig::validate() const
{
    if (!unitSize || !interval)
        return "the sampling design has a zero unit size or interval";
    if (offset > ~0ull / unitSize)
        return log::format("the sampling design's offset ", offset,
                           " overflows at unit size ", unitSize);
    return {};
}

SliceResult
SystematicSampler::runSlice(SimSession &session,
                            const ShardSpec &shard,
                            const ProgressTick &tick) const
{
    SliceResult r;
    detail::walkSchedule(
        session, config_, shard.firstUnitIndex,
        shard.runsTail ? ~0ull : shard.unitCount, shard.runsTail,
        [&tick](std::uint64_t) { return !tick || tick(); },
        detail::noSnapshot,
        [&](std::uint64_t length, bool isUnit) {
            return detail::measureWindow(session, r, length, isUnit);
        });
    r.endPos = session.instCount();
    return r;
}

void
SystematicSampler::foldSlice(SmartsEstimate &est,
                             const SliceResult &slice)
{
    for (const UnitObservation &o : slice.obs) {
        est.cpiStats.add(o.cpi);
        est.epiStats.add(o.epi);
    }
    est.instructionsMeasured += slice.measured;
    est.instructionsWarmed += slice.warmed;
    est.instructionsDropped += slice.dropped;
    if (slice.endPos > est.streamLength)
        est.streamLength = slice.endPos;
}

SystematicSampler::SystematicSampler(const SamplingConfig &config)
    : config_(config)
{
    if (!config.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!config.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

SmartsEstimate
SystematicSampler::run(SimSession &session) const
{
    SmartsEstimate est;
    foldSlice(est, runSlice(session, wholeGrid(config_)));
    return est;
}

MatchedEstimate
SystematicSampler::runMatched(MultiSession &session) const
{
    const std::size_t n = session.configCount();
    MatchedEstimate est;
    est.perConfig.resize(n);
    est.cpiDelta.resize(n);

    // Every config observes the same windows, so one set of
    // instruction counters serves them all.
    SliceResult counts;
    detail::walkSchedule(
        session, config_, config_.offset, ~0ull, /*runTail=*/true,
        detail::keepWalking, detail::noSnapshot,
        [&](std::uint64_t length, bool isUnit) {
            const MultiSegment seg = session.detailedRun(length);
            detail::bookWindow(counts, seg.instructions, length, isUnit, [&] {
                const double u = static_cast<double>(length);
                const double cpi0 =
                    static_cast<double>(seg.per[0].cycles) / u;
                for (std::size_t c = 0; c < n; ++c) {
                    const double cpi =
                        static_cast<double>(seg.per[c].cycles) / u;
                    est.perConfig[c].cpiStats.add(cpi);
                    est.perConfig[c].epiStats.add(
                        seg.per[c].energyNj /
                        static_cast<double>(seg.instructions));
                    est.cpiDelta[c].add(cpi - cpi0);
                }
            });
            return seg.instructions;
        });

    for (SmartsEstimate &per : est.perConfig) {
        per.instructionsMeasured = counts.measured;
        per.instructionsWarmed = counts.warmed;
        per.instructionsDropped = counts.dropped;
        per.streamLength = session.instCount();
    }
    return est;
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool) const
{
    if (!factory)
        SMARTS_FATAL("runSharded needs a session factory");
    return detail::runShards<CheckpointLibrary>(
        *this, factory, SmartsEstimate{}, pool, nullptr, streamLength,
        shards);
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const workloads::BenchmarkSpec &spec,
                              const uarch::MachineConfig &machine,
                              std::uint64_t streamLength,
                              std::size_t shards,
                              exec::ThreadPool &pool,
                              CheckpointStore &store) const
{
    if (!factory)
        SMARTS_FATAL("runSharded needs a session factory");
    return detail::runShardsStored<CheckpointLibrary>(
        *this, factory, SmartsEstimate{}, pool, store,
        LibraryKey::of(spec, machine, config_), streamLength, shards,
        [](const std::string &path, const LibraryKey &key,
           std::string *error) {
            return CheckpointLibrary::load(path, key, error);
        },
        [](const CheckpointLibrary &library, const LibraryKey &key,
           const std::string &path, std::string *error) {
            return library.save(key, path, error, /*createDirs=*/false);
        });
}

SmartsEstimate
SystematicSampler::runSharded(const SessionFactory &factory,
                              const CheckpointLibrary &library,
                              exec::ThreadPool &pool) const
{
    if (!factory)
        SMARTS_FATAL("runSharded needs a session factory");
    return detail::runShards(*this, factory, SmartsEstimate{}, pool,
                             &library);
}

} // namespace smarts::core
