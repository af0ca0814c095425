/**
 * @file
 * The one sharded executor, shared by SystematicSampler::runSharded
 * and mp::MixSampler::runSharded: plan → shard 0 at once → capture
 * (or prebuilt) checkpoints → pool → stream-order fold, plus the
 * store-backed "load, else run cold and persist" wrapper.
 *
 * A tier is a hook set: its sampler (runSlice(session, shard) and
 * the static foldSlice(estimate, slice)), a factory of fresh
 * sessions (std::unique_ptr), an empty estimate to fold into, and a
 * ShardLibrary type. Folding slices in shard order replays every
 * observation in stream order — never OnlineStats::merge, whose
 * rounding differs — so every mode equals the serial run() byte for
 * byte at any shard and thread count.
 */

#ifndef SMARTS_CORE_SHARD_EXECUTOR_HH
#define SMARTS_CORE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/checkpoint_store.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"

namespace smarts::core::detail {

/**
 * Run every shard on @p pool and fold the slices into @p est in shard
 * order. With @p prebuilt, shards resume from its checkpoints (it
 * must have been built for the sampler's design). Otherwise the grid
 * of (@p streamLength, @p shards) is planned here, shard 0 — which
 * resumes at stream start — is submitted at once, and the capture
 * pass streams on this thread, submitting shard s the moment its
 * checkpoint exists; @p collect (optional) receives the captured
 * library for persistence.
 */
template <typename Library, typename Sampler, typename Factory,
          typename Estimate>
Estimate
runShards(const Sampler &sampler, const Factory &factory, Estimate est,
          exec::ThreadPool &pool, const Library *prebuilt,
          std::uint64_t streamLength = 0, std::size_t shards = 0,
          Library *collect = nullptr)
{
    const SamplingConfig &config = sampler.samplingConfig();
    if (prebuilt && prebuilt->samplingConfig() != config)
        SMARTS_FATAL("shard library was built for a different "
                     "sampling design");
    if (prebuilt && prebuilt->plan().empty())
        SMARTS_FATAL("shard library has no shards");

    Library local;
    Library &captured = collect ? *collect : local;
    if (!prebuilt)
        captured = Library::prepare(
            config, Library::planShards(config, streamLength, shards));
    const Library &library = prebuilt ? *prebuilt : captured;
    const std::vector<ShardSpec> &plan = library.plan();

    // Each job writes only its own slice and reads only its own
    // checkpoint slot, filled before the job was submitted;
    // pool.wait() publishes every slice to this thread.
    std::vector<decltype(sampler.runSlice(*factory(), plan[0]))> slices(
        plan.size());
    auto submit = [&](std::size_t s) {
        pool.submit([&, s] {
            auto session = factory();
            if (s)
                library.at(s).restore(*session);
            slices[s] = sampler.runSlice(*session, plan[s]);
        });
    };

    // The capture pass's own position: normally the tail shard runs
    // the stream out, but on an overstated plan this still bounds
    // what was simulated. Folded last as an observation-free slice.
    typename decltype(slices)::value_type progress;
    if (prebuilt) {
        for (std::size_t s = 0; s < plan.size(); ++s)
            submit(s);
    } else {
        submit(0);
        if (plan.size() > 1) {
            auto session = factory();
            Library::capture(*session, config, plan,
                             [&](std::size_t s, auto &&cp) {
                                 captured.record(s, std::move(cp));
                                 submit(s);
                             });
            progress.endPos = session->instCount();
        }
    }
    pool.wait();

    for (const auto &slice : slices)
        Sampler::foldSlice(est, slice);
    Sampler::foldSlice(est, progress);
    return est;
}

/**
 * Store-backed runShards: consult @p store for @p key before
 * capturing. A hit resumes from the persisted warm state; a miss —
 * including a file that refuses to load, a recapture and never a
 * mis-warm — runs cold, collects the library and persists it for
 * every later run. @p load(path, key, error) -> optional<Library>
 * and @p save(library, key, path, error) -> bool are the tier's file
 * codec.
 */
template <typename Library, typename Sampler, typename Factory,
          typename Estimate, typename Load, typename Save>
Estimate
runShardsStored(const Sampler &sampler, const Factory &factory,
                Estimate est, exec::ThreadPool &pool,
                CheckpointStore &store, const LibraryKey &key,
                std::uint64_t streamLength, std::size_t shards,
                Load &&load, Save &&save)
{
    std::optional<Library> library;
    std::string error;
    store.loadEntry(
        key,
        [&](const std::string &path, std::string *loadError) {
            library = load(path, key, loadError);
            return library.has_value();
        },
        &error);
    if (library)
        return runShards(sampler, factory, std::move(est), pool,
                         &*library);
    // Say why a file that exists was refused (the loader names the
    // key component — benchmark, sampling design, geometry hash — or
    // the failing record).
    if (!error.empty())
        SMARTS_WARN("checkpoint store: recapturing (", error, ")");

    Library captured;
    est = runShards<Library>(sampler, factory, std::move(est), pool,
                             nullptr, streamLength, shards, &captured);
    if (!captured.complete())
        SMARTS_WARN("checkpoint store: not persisting ",
                    store.pathFor(key),
                    " (the stream ended before a shard boundary)");
    else if (!store.publishEntry(
                 key,
                 [&](const std::string &path, std::string *saveError) {
                     return save(captured, key, path, saveError);
                 },
                 &error))
        SMARTS_WARN("checkpoint store: could not persist ",
                    store.pathFor(key), " (", error, ")");
    return est;
}

} // namespace smarts::core::detail

#endif // SMARTS_CORE_SHARD_EXECUTOR_HH
