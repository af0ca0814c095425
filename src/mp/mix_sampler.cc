#include "mp/mix_sampler.hh"

#include <memory>
#include <utility>

#include "core/schedule.hh"
#include "core/shard_executor.hh"
#include "util/logging.hh"

namespace smarts::mp {

MixSampler::MixSampler(const WorkloadMix &mix,
                       const uarch::MachineConfig &machine,
                       const core::SamplingConfig &sampling)
    : mix_(mix), machine_(machine), sampling_(sampling)
{
    if (mix_.programs.empty())
        SMARTS_FATAL("a workload mix needs at least one program");
    if (!sampling_.unitSize)
        SMARTS_FATAL("sampling unit size must be nonzero");
    if (!sampling_.interval)
        SMARTS_FATAL("sampling interval must be nonzero");
}

MixSession
MixSampler::makeSession() const
{
    return MixSession(mix_, machine_);
}

std::uint64_t
MixSampler::measureStreamLength() const
{
    MixSession session = makeSession();
    while (!session.finished())
        session.fastForward(~0ull >> 1, core::WarmingMode::None);
    return session.roundCount();
}

MixEstimate
MixSampler::emptyEstimate() const
{
    MixEstimate est;
    est.perProgram.resize(mix_.programs.size());
    return est;
}

void
MixSampler::foldSlice(MixEstimate &est, const MixSliceResult &slice)
{
    for (const MixUnitObservation &o : slice.obs)
        for (std::size_t p = 0; p < o.per.size(); ++p) {
            const MixLaneObservation &lo = o.per[p];
            MixProgramEstimate &pe = est.perProgram[p];
            pe.coRun.cpiStats.add(lo.coCpi);
            pe.coRun.epiStats.add(lo.coEpi);
            pe.solo.cpiStats.add(lo.soloCpi);
            pe.solo.epiStats.add(lo.soloEpi);
            pe.cpiDelta.add(lo.coCpi - lo.soloCpi);
            pe.sharedAccesses += lo.sharedAccesses;
            pe.sharedMisses += lo.sharedMisses;
            pe.shadowAccesses += lo.shadowAccesses;
            pe.shadowMisses += lo.shadowMisses;
        }
    for (MixProgramEstimate &pe : est.perProgram) {
        pe.coRun.instructionsMeasured += slice.measured;
        pe.coRun.instructionsWarmed += slice.warmed;
        pe.coRun.instructionsDropped += slice.dropped;
        pe.solo.instructionsMeasured += slice.measured;
        pe.solo.instructionsWarmed += slice.warmed;
        pe.solo.instructionsDropped += slice.dropped;
        if (slice.endPos > pe.coRun.streamLength)
            pe.coRun.streamLength = slice.endPos;
        if (slice.endPos > pe.solo.streamLength)
            pe.solo.streamLength = slice.endPos;
    }
}

MixSliceResult
MixSampler::runSlice(MixSession &session,
                     const core::ShardSpec &shard) const
{
    // Every program observes the same U-round (= U-instruction)
    // window, in both worlds.
    MixSliceResult r;
    core::detail::walkSchedule(
        session, sampling_, shard.firstUnitIndex,
        shard.runsTail ? ~0ull : shard.unitCount, shard.runsTail,
        core::detail::keepWalking, core::detail::noSnapshot,
        [&](std::uint64_t length, bool isUnit) {
            const MixSegment seg = session.detailedRun(length);
            core::detail::bookWindow(r, seg.rounds, length, isUnit, [&] {
                const double u = static_cast<double>(length);
                MixUnitObservation o;
                o.per.resize(session.programCount());
                for (std::size_t p = 0; p < o.per.size(); ++p) {
                    const MixLaneSegment &ls = seg.per[p];
                    MixLaneObservation &lo = o.per[p];
                    lo.coCpi = static_cast<double>(ls.coCycles) / u;
                    lo.coEpi = ls.coEnergyNj / u;
                    lo.soloCpi = static_cast<double>(ls.soloCycles) / u;
                    lo.soloEpi = ls.soloEnergyNj / u;
                    lo.sharedAccesses = ls.sharedAccesses;
                    lo.sharedMisses = ls.sharedMisses;
                    lo.shadowAccesses = ls.shadowAccesses;
                    lo.shadowMisses = ls.shadowMisses;
                }
                r.obs.push_back(std::move(o));
            });
            return seg.rounds;
        });
    r.endPos = session.roundCount();
    return r;
}

MixEstimate
MixSampler::run() const
{
    MixSession session = makeSession();
    MixEstimate est = emptyEstimate();
    foldSlice(est, runSlice(session, core::wholeGrid(sampling_)));
    return est;
}

std::unique_ptr<MixSession>
MixSampler::newSession() const
{
    return std::make_unique<MixSession>(mix_, machine_);
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards,
                       exec::ThreadPool &pool) const
{
    return core::detail::runShards<MixLibrary>(
        *this, [this] { return newSession(); }, emptyEstimate(), pool,
        nullptr, streamLength, shards);
}

MixEstimate
MixSampler::runSharded(const MixLibrary &library,
                       exec::ThreadPool &pool) const
{
    return core::detail::runShards(
        *this, [this] { return newSession(); }, emptyEstimate(), pool,
        &library);
}

MixEstimate
MixSampler::runSharded(std::uint64_t streamLength,
                       std::size_t shards, exec::ThreadPool &pool,
                       core::CheckpointStore &store) const
{
    return core::detail::runShardsStored<MixLibrary>(
        *this, [this] { return newSession(); }, emptyEstimate(), pool,
        store, mixKey(mix_, machine_, sampling_), streamLength, shards,
        [this](const std::string &path, const core::LibraryKey &key,
               std::string *error) {
            return MixLibrary::load(path, mix_, key, error);
        },
        [this](const MixLibrary &library, const core::LibraryKey &key,
               const std::string &path, std::string *error) {
            return library.save(mix_, key, path, error,
                                /*createDirs=*/false);
        });
}

MixEstimate
runMix(const WorkloadMix &mix, const uarch::MachineConfig &machine,
       const core::SamplingConfig &sampling, std::size_t threads)
{
    MixSampler sampler(mix, machine, sampling);
    if (threads <= 1)
        return sampler.run();
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    exec::ThreadPool pool(static_cast<unsigned>(threads));
    return sampler.runSharded(streamLength, threads, pool);
}

MixEstimate
estimateMix(const WorkloadMix &mix,
            const uarch::MachineConfig &machine,
            const core::SamplingConfig &sampling,
            std::size_t threads, core::CheckpointStore &store)
{
    MixSampler sampler(mix, machine, sampling);
    const std::uint64_t streamLength =
        sampler.measureStreamLength();
    exec::ThreadPool pool(
        static_cast<unsigned>(threads ? threads : 1));
    return sampler.runSharded(streamLength, threads ? threads : 1,
                              pool, store);
}

} // namespace smarts::mp
