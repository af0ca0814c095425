/**
 * @file
 * Checkpointed functional warming: the subsystem that lets ONE
 * benchmark's stream be sharded across threads (paper Table 6 shows
 * functional warming dominating SMARTS runtime, and warming is
 * inherently serial — so a single long benchmark bottlenecks even a
 * perfectly parallel experiment grid).
 *
 * An ArchCheckpoint serializes the full warm simulator state:
 * architectural (registers, PC, data image) plus microarchitectural
 * (caches, TLBs, branch predictor, fixed-point accumulators).
 * ShardLibrary<Checkpoint> is the one shard-library container of
 * every session tier: it plans the shard split of a sampling run's
 * unit grid and captures each shard's resume checkpoint in one pass
 * of the schedule walker (core/schedule.hh) whose windows apply
 * SimSession::warmAsDetailed — the serial run's exact state
 * transitions without timing — so a shard resumed from its
 * checkpoint measures every unit bit-identically to the serial run.
 * CheckpointLibrary (solo, this file) and mp::MixLibrary (co-run)
 * supply only their file header/identity block and the session they
 * snapshot and restore.
 *
 * The capture pass costs roughly a functional-warming pass of the
 * stream and pipelines: shard s starts the moment checkpoint s is
 * captured (core/shard_executor.hh).
 *
 * Libraries are durable: save()/load() move them through a
 * versioned, endian-explicit, checksummed binary format
 * (docs/checkpoint-format.md) keyed by LibraryKey — benchmark,
 * sampling design, and the warm-state geometry hash of the machine
 * config. buildMulti() captures the per-config libraries of an
 * N-config study in ONE MultiSession streaming pass.
 * CheckpointStore (core/checkpoint_store.hh) is the directory cache
 * that runSharded/estimateSharded consult before capturing.
 */

#ifndef SMARTS_CORE_CHECKPOINT_HH
#define SMARTS_CORE_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/multi_session.hh"
#include "core/sampler.hh"
#include "core/schedule.hh"
#include "core/session.hh"
#include "util/binary_io.hh"
#include "util/logging.hh"
#include "workloads/benchmark.hh"

namespace smarts::core {

/**
 * On-disk library format version (docs/checkpoint-format.md).
 * Version 2 carries a FLAVOR byte after the endianness marker so one
 * `.smck` container holds either solo (flavor 0) or co-run mix
 * (flavor 1, mp::MixLibrary) state. Any other version is refused:
 * the store is a cache, so an old file is a miss and a recapture.
 */
constexpr std::uint32_t kCheckpointFormatVersion = 2;

/** File magic: 8 bytes, shared by every version and flavor. */
constexpr char kCheckpointMagic[8] = {'S', 'M', 'R', 'T',
                                      'C', 'K', 'P', 'T'};

/**
 * Endianness probe: written as a u32 through the little-endian
 * encoder, so the file always carries bytes 04 03 02 01. An external
 * reader that decodes it as anything but 0x01020304 is applying the
 * wrong byte order.
 */
constexpr std::uint32_t kCheckpointEndianMark = 0x01020304u;

/** v2 flavor byte: which session tier's state the payload carries. */
constexpr std::uint8_t kCheckpointFlavorSolo = 0;
constexpr std::uint8_t kCheckpointFlavorMix = 1;

/** Full warm simulator state, resumable into a same-spec session. */
struct ArchCheckpoint
{
    ArchState arch;
    TimingState timing;

    /** Instruction position the checkpoint resumes at. */
    std::uint64_t position = 0;

    /** First measured grid index of the shard this resume feeds. */
    std::uint64_t unitIndex = 0;

    /** Approximate serialized footprint, for capacity planning. */
    std::size_t
    byteSize() const
    {
        return arch.byteSize() + timing.byteSize() +
               2 * sizeof(std::uint64_t);
    }

    /** True for a slot no capture has filled yet. */
    bool
    empty() const
    {
        return arch.data.empty();
    }

    void
    save(const SimSession &session)
    {
        session.saveState(arch, timing);
    }

    void
    restore(SimSession &session) const
    {
        session.restoreState(arch, timing);
    }

    /** Field order is normative: docs/checkpoint-format.md. */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(position);
        out.u64(unitIndex);
        arch.write(out);
        timing.write(out);
    }

    void
    read(util::BinaryReader &in)
    {
        position = in.u64();
        unitIndex = in.u64();
        arch.read(in);
        timing.read(in);
    }
};

/**
 * Identity of a persisted checkpoint library: what must match, field
 * for field, before stored warm state may be resumed. The benchmark
 * spec pins the instruction stream, the sampling config pins the
 * capture schedule (which regions were warmed as-detailed vs
 * fast-forwarded), and the geometry hash
 * (uarch::warmGeometryHash) pins every structure whose state the
 * checkpoints carry. Timing-only config differences (latencies,
 * width, energy) hash identically on purpose: warm state does not
 * depend on them, so one library serves a whole latency/energy
 * sweep.
 */
struct LibraryKey
{
    workloads::BenchmarkSpec benchmark;
    std::uint64_t geometryHash = 0;
    SamplingConfig sampling;

    static LibraryKey of(const workloads::BenchmarkSpec &spec,
                         const uarch::MachineConfig &config,
                         const SamplingConfig &sampling);

    /**
     * Field order is normative (docs/checkpoint-format.md § Key);
     * the distributed job manifest and result files
     * (docs/distributed-runners.md) embed the same encoding.
     */
    void write(util::BinaryWriter &out) const;
    static LibraryKey read(util::BinaryReader &in);

    /** Store subdirectory for the benchmark: "<name>-<scale>". */
    std::string dirName() const;

    /** Filesystem-safe file name encoding the sampling + geometry. */
    std::string fileName() const;

    /**
     * File name of the key's LIVE-POINT library (core/livepoint.hh):
     * same stem, `.smlp` extension — both flavors of warm state for
     * a key sit side by side in its store directory.
     */
    std::string livePointFileName() const;

    /** Empty when equal; else which component diverges (for logs). */
    std::string mismatchAgainst(const LibraryKey &other) const;
};

/** One contiguous slice of a sampling run's measured-unit grid. */
struct ShardSpec
{
    /** Grid index (offset + m*k form) of the shard's first unit. */
    std::uint64_t firstUnitIndex = 0;

    /** Measured units owned by this shard. */
    std::uint64_t unitCount = 0;

    /** Serial instruction position at the shard's first iteration. */
    std::uint64_t resumePos = 0;

    /** Last shard: run the stream out so streamLength is exact. */
    bool runsTail = false;

    /**
     * Field order is normative (docs/checkpoint-format.md § Plan);
     * job manifests and result files embed the same encoding.
     */
    void
    write(util::BinaryWriter &out) const
    {
        out.u64(firstUnitIndex);
        out.u64(unitCount);
        out.u64(resumePos);
        out.u8(runsTail ? 1 : 0);
    }

    void
    read(util::BinaryReader &in)
    {
        firstUnitIndex = in.u64();
        unitCount = in.u64();
        resumePos = in.u64();
        runsTail = in.u8() != 0;
    }
};

/**
 * Field-for-field equality — the ONE definition every plan/echo
 * comparison uses (store plan-match checks, the distributed
 * shard-echo refusal), so a future ShardSpec field cannot make one
 * path recapture while another accepts a stale plan. Whole plans
 * compare via std::vector's operator==.
 */
inline bool
operator==(const ShardSpec &a, const ShardSpec &b)
{
    return a.firstUnitIndex == b.firstUnitIndex &&
           a.unitCount == b.unitCount && a.resumePos == b.resumePos &&
           a.runsTail == b.runsTail;
}

inline bool
operator!=(const ShardSpec &a, const ShardSpec &b)
{
    return !(a == b);
}

/** The whole grid of @p config as one shard: the serial run. */
inline ShardSpec
wholeGrid(const SamplingConfig &config)
{
    ShardSpec all;
    all.firstUnitIndex = config.offset;
    all.runsTail = true;
    return all;
}

namespace detail {

/**
 * The shard capture pass: the schedule walker with state-equivalent
 * windows (SimSession::warmAsDetailed — detailedRun's transitions,
 * no timing) that calls @p snap(shard) at each shard boundary. A
 * boundary is an iteration start, where the session state is
 * bit-identical to the serial run's. The pass stops after the last
 * boundary: the tail belongs to the last shard.
 */
template <typename Session, typename Snap>
void
captureSchedule(Session &session, const SamplingConfig &config,
                const std::vector<ShardSpec> &plan, Snap &&snap)
{
    std::size_t next = 1;
    walkSchedule(
        session, config, config.offset, ~0ull, /*runTail=*/false,
        [&](std::uint64_t unitIdx) {
            for (; next < plan.size() &&
                   unitIdx >= plan[next].firstUnitIndex;
                 ++next) {
                // The grid index can cross a boundary the STREAM
                // never reached (it ended mid-unit on a mis-stated
                // length); snapping there would persist a checkpoint
                // load() must forever refuse. Unreachable = stop.
                if (session.instCount() < plan[next].resumePos)
                    return false;
                snap(next);
            }
            return next < plan.size();
        },
        noSnapshot,
        [&session](std::uint64_t length, bool) {
            return session.warmAsDetailed(length);
        });
}

} // namespace detail

/**
 * What every shard library holds apart from its checkpoints: the
 * sampling design, the shard plan, and the plan's part of the
 * on-disk format.
 */
class ShardLibraryBase
{
  public:
    /**
     * Split the measured-unit grid of (@p config, @p streamLength)
     * into at most @p shards contiguous, non-empty shards (clamped
     * to the unit count; an empty grid yields one tail-only shard).
     * Shard boundaries land on iteration starts of the serial
     * sampling loop, i.e. just after the previous measured unit
     * completes.
     */
    static std::vector<ShardSpec>
    planShards(const SamplingConfig &config,
               std::uint64_t streamLength, std::size_t shards);

    /**
     * Check that @p plan is one planShards(@p config, ...) could
     * have produced: a valid design, contiguous shard geometry,
     * interior resume positions on iteration boundaries, the tail
     * flag on exactly the last shard. Returns an empty string when
     * valid, else a diagnostic naming the offending shard. Library
     * loaders and the distributed job manifest refuse files whose
     * plan fails this — a checksum only proves the writer was
     * careful, not honest, and executing a malformed plan would
     * MIS-MEASURE instead of failing loudly.
     */
    static std::string
    validatePlan(const SamplingConfig &config,
                 const std::vector<ShardSpec> &plan);

    const SamplingConfig &
    samplingConfig() const
    {
        return config_;
    }

    const std::vector<ShardSpec> &
    plan() const
    {
        return plan_;
    }

    std::size_t
    shardCount() const
    {
        return plan_.size();
    }

  protected:
    /** Magic, version, endianness marker and @p flavor byte. */
    static void writeHeader(util::BinaryWriter &out,
                            std::uint8_t flavor);

    /**
     * Consume what writeHeader wrote from @p in (the file at
     * @p path), refusing — false plus a diagnostic in @p error — an
     * unreadable or foreign file, another version, or another flavor
     * (named, with the loader it needs).
     */
    static bool readHeader(util::BinaryReader &in,
                           const std::string &path, std::uint8_t flavor,
                           std::string *error);

    /** The key, then the plan (docs/checkpoint-format.md § Plan). */
    void writeKeyAndPlan(const LibraryKey &key,
                         util::BinaryWriter &out) const;

    /**
     * Read what writeKeyAndPlan wrote: the key must match @p expect
     * and the plan must pass validatePlan. Empty when accepted, else
     * the refusal.
     */
    std::string readKeyAndPlan(util::BinaryReader &in,
                               const LibraryKey &expect,
                               const std::string &path);

    SamplingConfig config_;
    std::vector<ShardSpec> plan_;
};

/**
 * The shard-library container of every session tier: the shard plan
 * plus one resume checkpoint per shard (slot 0 resumes at stream
 * start and stays empty). Capturing costs roughly one warming pass;
 * once built, sharded measurement of the same (benchmark, sampling
 * design) scales with threads and re-runs — the tuned second pass,
 * config sweeps, repeated design studies — pay no warming at all.
 *
 * @p Checkpoint supplies empty(), save(session), restore(session),
 * byteSize(), write(out), read(in) and the position / unitIndex
 * fields; @p Library is the tier's library class deriving from this
 * one (prepare() and build() return it).
 */
template <typename Library, typename Checkpoint>
class ShardLibrary : public ShardLibraryBase
{
  public:
    /** Called as checkpoint @p shard becomes available (shard >= 1). */
    using CheckpointSink =
        std::function<void(std::size_t shard, Checkpoint &&)>;

    /**
     * An empty library for (@p config, @p plan) whose checkpoints
     * arrive later via record() — the pipelined capture path
     * collects a persistable library this way while shards execute.
     */
    static Library
    prepare(const SamplingConfig &config,
            const std::vector<ShardSpec> &plan)
    {
        Library library;
        library.config_ = config;
        library.plan_ = plan;
        library.checkpoints_.resize(plan.size());
        return library;
    }

    /**
     * Stream @p session (fresh, at stream start) through the serial
     * sampling schedule with state-equivalent warming, invoking
     * @p sink the moment each shard's resume state is reached.
     */
    template <typename Session>
    static void
    capture(Session &session, const SamplingConfig &config,
            const std::vector<ShardSpec> &plan,
            const CheckpointSink &sink)
    {
        detail::captureSchedule(session, config, plan,
                                [&](std::size_t s) {
                                    Checkpoint cp;
                                    cp.save(session);
                                    cp.position = session.instCount();
                                    cp.unitIndex =
                                        plan[s].firstUnitIndex;
                                    sink(s, std::move(cp));
                                });
    }

    /** Capture every checkpoint of @p plan into a reusable library. */
    template <typename Session>
    static Library
    build(Session &session, const SamplingConfig &config,
          const std::vector<ShardSpec> &plan)
    {
        Library library = prepare(config, plan);
        capture(session, config, plan,
                [&library](std::size_t s, Checkpoint &&cp) {
                    library.record(s, std::move(cp));
                });
        library.requireComplete();
        return library;
    }

    /** Store shard @p shard's captured checkpoint. */
    void
    record(std::size_t shard, Checkpoint cp)
    {
        checkpoints_[shard] = std::move(cp);
    }

    /** True when every resume slot (shard >= 1) holds a checkpoint. */
    bool
    complete() const
    {
        for (std::size_t s = 1; s < checkpoints_.size(); ++s)
            if (checkpoints_[s].empty())
                return false;
        return !checkpoints_.empty();
    }

    /**
     * The stream ending before every boundary means the plan's
     * streamLength was overstated; fail with a clear message rather
     * than mid-pool when a shard restores an empty snapshot.
     */
    void
    requireComplete() const
    {
        for (std::size_t s = 1; s < checkpoints_.size(); ++s)
            if (checkpoints_[s].empty())
                SMARTS_FATAL("stream ended before the checkpoint for "
                             "shard ", s, " (position ",
                             plan_[s].resumePos,
                             ") — was streamLength overstated?");
    }

    const Checkpoint &
    at(std::size_t shard) const
    {
        return checkpoints_[shard];
    }

    /** Total in-memory footprint of the captured checkpoints. */
    std::size_t
    byteSize() const
    {
        std::size_t total = 0;
        for (const Checkpoint &cp : checkpoints_)
            total += cp.byteSize();
        return total;
    }

  protected:
    /** Key, plan, then the checkpoint slots. */
    void
    writeBody(const LibraryKey &key, util::BinaryWriter &out) const
    {
        writeKeyAndPlan(key, out);
        out.u64(checkpoints_.size());
        for (std::size_t s = 0; s < checkpoints_.size(); ++s) {
            // Slot 0 resumes at stream start and carries no state.
            const bool present = s > 0;
            out.u8(present ? 1 : 0);
            if (present)
                checkpoints_[s].write(out);
        }
    }

    /**
     * Read what writeBody wrote, refusing (false plus a diagnostic
     * in @p error) a mismatched key, an invalid plan, a slot present
     * where none belongs or missing where one does, truncation,
     * trailing garbage, or a checkpoint disagreeing with its shard.
     */
    bool
    readBody(util::BinaryReader &in, const LibraryKey &expect,
             const std::string &path, std::string *error)
    {
        auto refuse = [error](std::string why) {
            if (error)
                *error = std::move(why);
            return false;
        };
        std::string why = readKeyAndPlan(in, expect, path);
        if (!why.empty())
            return refuse(std::move(why));
        const std::uint64_t count = in.u64();
        if (count != plan_.size())
            return refuse(log::format(path, " is corrupt (", count,
                                      " checkpoints for ",
                                      plan_.size(), " shards)"));
        checkpoints_.resize(count);
        for (std::size_t s = 0; s < count; ++s) {
            const bool present = in.u8() != 0;
            if (present == (s == 0))
                return refuse(log::format(
                    path, " is corrupt (checkpoint ", s,
                    present ? " unexpectedly present" : " missing"));
            if (present)
                checkpoints_[s].read(in);
        }
        if (in.failed() || in.remaining() != 0)
            return refuse(log::format(
                path, " is truncated or has trailing garbage"));
        for (std::size_t s = 1; s < count; ++s)
            if (checkpoints_[s].position != plan_[s].resumePos ||
                checkpoints_[s].unitIndex != plan_[s].firstUnitIndex)
                return refuse(log::format(
                    path, " is corrupt (checkpoint ", s,
                    " disagrees with its shard plan)"));
        return true;
    }

    std::vector<Checkpoint> checkpoints_;
};

/** The solo tier's shard library: SimSession state per shard. */
class CheckpointLibrary
    : public ShardLibrary<CheckpointLibrary, ArchCheckpoint>
{
  public:
    /**
     * Multi-config capture: ONE streaming pass over @p session (N
     * configs in lockstep off the shared architectural stream)
     * produces the per-config libraries an N-config design study
     * needs — library c is byte-identical to what build() over a
     * single-config session of config c would have captured, at
     * roughly 1/N of the total capture cost. This is what makes
     * checkpoint reuse work ACROSS configs even though warm state is
     * config-dependent.
     */
    static std::vector<CheckpointLibrary>
    buildMulti(MultiSession &session, const SamplingConfig &config,
               const std::vector<ShardSpec> &plan);

    /**
     * Serialize under @p key into the versioned on-disk format
     * (docs/checkpoint-format.md) and publish atomically at @p path.
     * False with @p error set on filesystem failure.
     */
    bool save(const LibraryKey &key, const std::string &path,
              std::string *error = nullptr,
              bool createDirs = true) const;

    /**
     * Load a library from @p path, refusing — nullopt plus a
     * diagnostic in @p error — on anything short of an exact match:
     * missing/truncated/corrupt file (checksum), another format
     * version or flavor, or a key whose benchmark, sampling design
     * or config geometry differs from @p expect. Refusal is the
     * contract: a mis-keyed library must never silently mis-warm a
     * shard.
     */
    static std::optional<CheckpointLibrary>
    load(const std::string &path, const LibraryKey &expect,
         std::string *error = nullptr);

    /** Serialize to @p out (save() = serialize + checksummed file). */
    void serialize(const LibraryKey &key,
                   util::BinaryWriter &out) const;
};

} // namespace smarts::core

#endif // SMARTS_CORE_CHECKPOINT_HH
