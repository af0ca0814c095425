#include "mp/mix_library.hh"

#include "util/logging.hh"

namespace smarts::mp {

void
MixLibrary::serialize(const WorkloadMix &mix,
                      const core::LibraryKey &key,
                      util::BinaryWriter &out) const
{
    writeHeader(out, core::kCheckpointFlavorMix);

    // The mix identity block: the co-run state depends on EVERY
    // program's stream and on the partition policy, so both are part
    // of what a loader must match before resuming.
    out.u8(static_cast<std::uint8_t>(mix.policy));
    out.u32(static_cast<std::uint32_t>(mix.programs.size()));
    for (const workloads::BenchmarkSpec &spec : mix.programs) {
        out.str(spec.name);
        out.u32(static_cast<std::uint32_t>(spec.kernel));
        out.u32(spec.variant);
        out.u64(spec.seed);
        out.u32(static_cast<std::uint32_t>(spec.scale));
    }
    writeBody(key, out);
}

bool
MixLibrary::save(const WorkloadMix &mix, const core::LibraryKey &key,
                 const std::string &path, std::string *error,
                 bool createDirs) const
{
    util::BinaryWriter out;
    serialize(mix, key, out);
    return out.writeFile(path, error, createDirs);
}

std::optional<MixLibrary>
MixLibrary::load(const std::string &path,
                 const WorkloadMix &expectMix,
                 const core::LibraryKey &expect, std::string *error)
{
    auto refuse = [error](std::string why) {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    util::BinaryReader in = util::BinaryReader::fromFile(path, error);
    if (!readHeader(in, path, core::kCheckpointFlavorMix, error))
        return std::nullopt;

    const auto policy = static_cast<mem::PartitionPolicy>(in.u8());
    const std::uint32_t programCount = in.u32();
    if (in.failed() || programCount > in.remaining())
        return refuse(log::format(
            path, " is corrupt (program count ", programCount, ")"));
    if (policy != expectMix.policy ||
        programCount != expectMix.programs.size())
        return refuse(log::format(
            path, ": mix mismatch (file: ", programCount,
            " programs, policy ",
            mem::partitionPolicyName(policy), "; expected: ",
            expectMix.programs.size(), " programs, policy ",
            mem::partitionPolicyName(expectMix.policy), ")"));
    for (std::uint32_t p = 0; p < programCount; ++p) {
        workloads::BenchmarkSpec spec;
        spec.name = in.str();
        spec.kernel = static_cast<workloads::Kernel>(in.u32());
        spec.variant = in.u32();
        spec.seed = in.u64();
        spec.scale = static_cast<workloads::Scale>(in.u32());
        const workloads::BenchmarkSpec &want = expectMix.programs[p];
        if (spec.name != want.name || spec.kernel != want.kernel ||
            spec.variant != want.variant || spec.seed != want.seed ||
            spec.scale != want.scale)
            return refuse(log::format(
                path, ": mix mismatch (program ", p, " is ",
                spec.name, ", expected ", want.name, ")"));
    }

    MixLibrary library;
    if (!library.readBody(in, expect, path, error))
        return std::nullopt;
    for (std::size_t s = 1; s < library.shardCount(); ++s) {
        const MixState &state = library.at(s).state;
        if (state.archs.size() != programCount ||
            state.lanes.size() != programCount)
            return refuse(log::format(
                path, " is corrupt (checkpoint ", s, " carries ",
                state.archs.size(), " programs for a ", programCount,
                "-program mix)"));
    }
    return library;
}

} // namespace smarts::mp
